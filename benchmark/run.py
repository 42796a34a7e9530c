"""cfmimo benchmark: one command for every workload.

    python3 benchmark/run.py --workload decide-50x10 --seed 0 --seconds 45 --trace 0

Runs from the root of a source checkout, single process, one BLAS thread.
Prints each metric with its unit, then a detail line (environment stamp,
sample counts, tail percentiles, derived speed-up ratios, problems found),
and last a JSON line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Work files go under .bench_work/ and are removed; spans of a traced run
are written to .bench_out/.
"""

import argparse
import os
import sys

# one BLAS thread, set before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

UNITS = {
    "setup_s": "s", "pipeline_s": "s", "train_iters_per_s": "1/s",
    "solve_per_s": "1/s", "peak_rss_mb": "MB", "failed_frac": "fraction",
    "dnn_gap_pct": "%", "online_gap_pct": "%",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_s") or ".stage_s." in name or ".evaluate_s." in name \
            or name.startswith("self_s."):
        return "s"
    return "count"


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment():
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cfmimo", "__init__.py")):
        print(f"error: no cfmimo sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import json
    import shutil
    from pathlib import Path

    import gate
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}, pick from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    work = Path(ROOT) / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    ledger = gate.Ledger()
    runner = (workloads.run_offline if args.workload.startswith("offline")
              else workloads.run_decide)
    try:
        result = runner(spec, args.seed, args.seconds, work, bool(args.trace), ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, detail = result[0], result[1]
    if args.trace:
        tracer = result[2]
        out = Path(ROOT) / ".bench_out" / f"spans-{args.workload}-s{args.seed}.jsonl"
        detail["spans_file"] = str(out.relative_to(ROOT))
        detail["spans_bytes"] = tracer.write(out)
        names = workloads.PER_LAYER
    else:
        names = list(metrics)
    detail["failed_frac"] = ledger.failed_frac
    detail["environment"] = environment()
    detail["problems"] = ledger.problems

    for name in names:
        print(f"{name:34s} {metrics[name]!r:>24} {unit_of(name)}")
    if not args.trace:
        for name in workloads.PRINTED_ONLY:
            print(f"{name:34s} {detail[name]!r:>24} {unit_of(name)}  (not gated)")
    print(f"{'failed_frac':34s} {ledger.failed_frac!r:>24} fraction "
          f"({ledger.failed}/{ledger.attempted})")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
