"""Command line entry points.

Heavy modules are imported inside the command handlers, after --threads
has been translated into the BLAS environment variables, so thread caps
actually reach the numeric libraries.

Exit codes: 0 success, 2 invalid input or configuration, 3 unreadable or
foreign file formats, 4 runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .config import FINETUNE_LR, FINETUNE_STEPS
from .errors import FormatError, SolverError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FORMAT = 3
EXIT_RUNTIME = 4

SPLITS = ("train", "val", "test")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cfmimo",
        description="Max-min uplink power control for cell-free networks: "
                    "data generation, solver baseline, network training, "
                    "evaluation and timing.",
    )
    p.add_argument("--config", type=Path, metavar="JSON",
                   help="config file; defaults apply when omitted")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for data generation or training")
    p.add_argument("--out", type=Path, metavar="PATH",
                   help="output file or directory of the subcommand")
    p.add_argument("--threads", type=int, metavar="N",
                   help="cap BLAS threads before numeric imports")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser("gen-data", help="generate train/val/test datasets into --out")

    tr = sub.add_parser("train", help="train the controller, checkpoint to --out")
    tr.add_argument("--data", type=Path, required=True, metavar="DIR",
                    help="directory produced by gen-data")

    for name, fixed, text in (
            ("eval", None, "run one method over a split, report to --out"),
            ("solve-baseline", "baseline", "shorthand for eval --method baseline"),
            ("finetune", "dnn-online", "shorthand for eval --method dnn-online"),
            ("bench", None, "single-snapshot timing table, JSON to --out")):
        ev = sub.add_parser(name, help=text)
        ev.add_argument("--data", type=Path, required=True, metavar="DIR")
        ev.add_argument("--split", choices=SPLITS, default="test")
        if name == "eval":
            ev.add_argument("--method", required=True,
                            choices=("baseline", "max-power", "dnn", "dnn-online"))
        ev.add_argument("--checkpoint", type=Path, metavar="CFCK")
        if name == "bench":
            ev.add_argument("--samples", type=int, default=100)
            ev.add_argument("--warmup", type=int, default=3)
        ev.add_argument("--finetune-steps", type=int, default=FINETUNE_STEPS)
        ev.add_argument("--finetune-lr", type=float, default=FINETUNE_LR)
        ev.set_defaults(fixed_method=fixed)

    rp = sub.add_parser("report", help="print the summary of a report directory")
    rp.add_argument("report_dir", type=Path)

    au = sub.add_parser("audit", help="verify a report against its dataset")
    au.add_argument("report_dir", type=Path)
    au.add_argument("--data", type=Path, required=True, metavar="DIR")
    au.add_argument("--split", choices=SPLITS, default="test")

    return p


def _apply_threads(n: int):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)


def _load_configs(args):
    from .config import DataConfig, SystemConfig, TrainConfig, load_config

    if args.config is None:
        return SystemConfig(), TrainConfig(), DataConfig()
    if not args.config.exists():
        raise ValidationError(f"config file {args.config} does not exist")
    return load_config(args.config)


def _require_out(args, what):
    if args.out is None:
        raise ValidationError(f"--out is required: {what}")
    return args.out


def _load_split(data_dir: Path, split: str):
    from .datasets import load_dataset

    path = data_dir / f"{split}.cfmm"
    if not path.exists():
        raise ValidationError(f"no {split} dataset under {data_dir}")
    return load_dataset(path)


def _cmd_gen_data(args) -> int:
    from .config import save_config
    from .datasets import generate_splits, save_dataset

    system, train, data = _load_configs(args)
    out = _require_out(args, "directory for the dataset files")
    seed = 0 if args.seed is None else args.seed
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    splits = generate_splits(system, data, seed)
    for split, ds in splits.items():
        save_dataset(out / f"{split}.cfmm", ds, force=args.force)
    cfg_copy = out / "config.json"
    if args.force or not cfg_copy.exists():
        save_config(cfg_copy, system, train, data)
    sizes = ", ".join(f"{k}={len(v)}" for k, v in splits.items())
    print(f"wrote {data.scenario} datasets ({sizes}) to {out} "
          f"in {time.perf_counter() - started:.1f} s")
    return EXIT_OK


def _cmd_train(args) -> int:
    import dataclasses

    from .checkpoints import Checkpoint, save_checkpoint
    from .training import train_model

    system, tcfg, _ = _load_configs(args)
    out = _require_out(args, "path of the checkpoint file")
    if args.seed is not None:
        tcfg = dataclasses.replace(tcfg, seed=args.seed)
    train_ds = _load_split(args.data, "train")
    val_ds = _load_split(args.data, "val")

    def progress(it, train_loss, val_loss):
        if it % (tcfg.validation_every * 10) == 0:
            print(f"  iteration {it:>6}: train {train_loss:+.4f}  "
                  f"val {val_loss:+.4f}", file=sys.stderr)

    started = time.perf_counter()
    run = train_model(train_ds.beta, val_ds.beta, system, tcfg,
                      progress=progress)
    elapsed = time.perf_counter() - started
    save_checkpoint(out, Checkpoint.from_run(run, system, tcfg),
                    force=args.force)
    print(f"trained {tcfg.iterations} iterations in {elapsed:.1f} s, "
          f"best validation loss {run.best_val_loss:+.4f} "
          f"at iteration {run.best_iteration}; saved {out}")
    return EXIT_OK


def _load_checkpoint_checked(args, system, tcfg):
    """The --checkpoint, checked against the config and --seed; None
    without one."""
    import dataclasses

    from .checkpoints import load_checkpoint
    from .config import config_digest

    if args.checkpoint is None:
        return None
    if args.seed is not None:
        tcfg = dataclasses.replace(tcfg, seed=args.seed)
    ck = load_checkpoint(args.checkpoint)
    if ck.digest != config_digest(system, tcfg):
        raise ValidationError(
            "checkpoint was trained under a different config "
            "(check the train section and --seed)"
        )
    return ck


def _cmd_eval(args) -> int:
    from .reports import evaluate, save_report

    system, tcfg, _ = _load_configs(args)
    out = _require_out(args, "report directory")
    method = args.fixed_method or args.method
    ds = _load_split(args.data, args.split)
    if method == "baseline" and args.split == "train":
        print(f"warning: solving the baseline for all {len(ds)} training "
              "samples; this can take a long time", file=sys.stderr)
    ck = (_load_checkpoint_checked(args, system, tcfg)
          if method in ("dnn", "dnn-online") else None)
    started = time.perf_counter()
    report = evaluate(method, ds, system, checkpoint=ck,
                      finetune_steps=args.finetune_steps,
                      finetune_lr=args.finetune_lr)
    elapsed = time.perf_counter() - started
    save_report(out, report, force=args.force)
    s = report.summary()
    print(f"{method} on {args.split}: avg min rate "
          f"{s['avg_min_rate']:.4f} bit/s/Hz over {s['n_samples']} samples, "
          f"95%-likely per-user net throughput "
          f"{s['p95_likely_user_net_throughput'] / 1e6:.3f} Mbit/s "
          f"({elapsed:.1f} s); report in {out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    import json

    import numpy as np

    from .reports import BENCH_METHODS, bench_methods

    system, tcfg, _ = _load_configs(args)
    ds = _load_split(args.data, args.split)
    ck = _load_checkpoint_checked(args, system, tcfg)
    methods = BENCH_METHODS if ck is not None else ("baseline",)
    times = bench_methods(ds, system, checkpoint=ck, methods=methods,
                          n_samples=args.samples, warmup=args.warmup,
                          finetune_steps=args.finetune_steps,
                          finetune_lr=args.finetune_lr)
    mean = {m: float(t.mean()) for m, t in times.items()}
    speedup = {m: mean["baseline"] / v for m, v in mean.items()}
    payload = {
        "n_samples": len(times["baseline"]),
        "n_aps": system.n_aps,
        "n_users": system.n_users,
        "mean_s": mean,
        "median_s": {m: float(np.median(t)) for m, t in times.items()},
        "speedup_vs_baseline": speedup,
    }
    for m in methods:
        print(f"{m:>12}: {mean[m] * 1e3:8.3f} ms/snapshot "
              f"({speedup[m]:5.1f}x vs baseline)")
    if args.out is not None:
        if args.out.exists() and not args.force:
            raise ValidationError(f"{args.out} exists, pass --force")
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"timing table written to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    from .reports import load_report

    report = load_report(args.report_dir)
    for key, value in sorted(report.summary().items()):
        print(f"{key}: {value}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    from .reports import audit_report, load_report

    system, _, _ = _load_configs(args)
    ds = _load_split(args.data, args.split)
    problems = audit_report(args.report_dir, ds, system)
    if problems:
        for item in problems:
            print(f"audit: {item}", file=sys.stderr)
        return EXIT_RUNTIME
    n = len(load_report(args.report_dir))
    print(f"audit clean: {args.report_dir} matches its "
          f"regeneration over {n} samples")
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "solve-baseline": _cmd_eval,
    "finetune": _cmd_eval,
    "bench": _cmd_bench,
    "report": _cmd_report,
    "audit": _cmd_audit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be positive", file=sys.stderr)
            return EXIT_VALIDATION
        _apply_threads(args.threads)

    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (RuntimeError, OSError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
