"""The benchmark workloads and the metrics they report.

decide-30x5 / decide-50x10
    Closed loop, one caller: a snapshot is handed to a method only after the
    previous decision returned.  Set-up builds the controller through the
    CLI (gen-data, train) and loads the artifacts with the Python API.  The
    snapshots are decided by baseline and dnn, and every stride-th one also
    by dnn-online.
offline-30x5
    The CLI pipeline in-process on a reduced config: gen-data, train,
    solve-baseline, eval max-power, eval dnn, finetune, and an audit of
    every report; run OFFLINE_ROUNDS times, each on its share of the test
    snapshots.

Each workload has an untraced run (end-to-end metrics) and a traced run
(per-layer metrics).  The traced run also times its work untraced on the
same inputs (decide: each decision untraced, then traced; offline: a whole
pipeline first), so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

# cfmimo functions are called through their modules, so that the traced
# run's wrappers are the ones called
from cfmimo import checkpoints, cli, datasets, rates, reports, solver, training
from cfmimo.config import SystemConfig

import gate
from spans import LAYERS, Tracer

# Printed with the end-to-end metrics and kept in the detail line, but not
# gated: their spread between runs exceeds any allowed bound (README.md).
PRINTED_ONLY = ("dnn_p50_ms", "dnn_tail_ms", "online_p50_ms", "online_gap_pct")
# Highest of these percentiles with at least TAIL_BEYOND samples above it
# is reported as the tail.
TAIL_GRID = (50.0, 90.0, 99.0)
TAIL_BEYOND = 10
SETUP_REPEATS = 3
OFFLINE_SETUP_REPEATS = 3   # per round
OFFLINE_ROUNDS = 4
BLOCKS = 8
TRAIN_SAMPLES = 1000
VAL_SAMPLES = 100
# decide-* controllers are trained from one fixed seed: the deployed model
# is the same in every run, and the workload seed draws only the snapshots
CONTROLLER_SEED = 0


@dataclass(frozen=True)
class DecideSpec:
    n_aps: int
    n_users: int
    train_iterations: int
    baseline_per_s: float  # snapshots decided by every method, per run second
    online_per_s: float    # of those, decided by dnn-online, per run second


@dataclass(frozen=True)
class OfflineSpec:
    n_aps: int
    n_users: int
    train_iterations: int
    test_per_s: float      # test snapshots per run second
    finetune_steps: int


WORKLOADS = {
    "decide-30x5": DecideSpec(30, 5, 300, 16.7, 1.1),
    "decide-50x10": DecideSpec(50, 10, 100, 11.0, 0.15),
    "offline-30x5": OfflineSpec(30, 5, 1000, 16.0, 10),
}


# --- small helpers -----------------------------------------------------------

def tail(values):
    """(value, percentile) of the highest TAIL_GRID percentile that has at
    least TAIL_BEYOND samples beyond it; the maximum when none has."""
    n = len(values)
    best = None
    for p in TAIL_GRID:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            best = p
    if best is None:
        return float(np.max(values)), 100.0
    return float(np.percentile(values, best)), best


def latency_summary(name, seconds, out, detail):
    ms = np.asarray(seconds) * 1e3
    value, pct = tail(ms)
    out[f"{name}_p50_ms"] = float(np.median(ms))
    out[f"{name}_tail_ms"] = value
    detail[name] = {"samples": len(ms), "tail_percentile": pct,
                    "mean_ms": float(ms.mean())}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worst_rate(coeffs, i, q):
    return math.log1p(gate.min_sinr(coeffs, i, q)) / rates.LN2


def gap_pct(base_rates, method_rates):
    b, m = np.asarray(base_rates), np.asarray(method_rates)
    return float(np.mean((b - m) / b) * 100.0)


def run_cli(ledger, argv, tracer=None, tag=None):
    """One CLI stage in-process; returns its wall seconds.  Output is kept
    only to explain a failure."""
    sink = io.StringIO()
    if tracer is not None:
        tracer.snapshot = tag
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = ledger.run(f"cli {argv[-1] if tag is None else tag}",
                          cli.main, argv)
    elapsed = time.perf_counter() - start
    if code is not None:
        ledger.record(f"cli {tag or argv}",
                      [] if code == 0 else [f"exit {code}: {sink.getvalue()[-300:]}"])
    return elapsed


def write_config(path, spec, train_samples, val_samples, test_samples, iterations):
    path.write_text(json.dumps({
        "system": {"n_aps": spec.n_aps, "n_users": spec.n_users},
        "train": {"iterations": iterations, "batch_size": 100,
                  "validation_every": 50},
        "data": {"train_samples": train_samples, "val_samples": val_samples,
                 "test_samples": test_samples},
    }))


# --- decide-* ----------------------------------------------------------------

def decide_setup(spec, seed, work, ledger, n_test, tracer=None):
    """The controller's data and weights from CONTROLLER_SEED, the test
    snapshots from the workload seed, all through the CLI; then load the
    test split and the checkpoint."""
    work.mkdir(parents=True)
    ctl_cfg, test_cfg = work / "controller.json", work / "test.json"
    ctl_data, test_data = work / "controller", work / "test"
    model = work / "model.cfck"
    write_config(ctl_cfg, spec, TRAIN_SAMPLES, VAL_SAMPLES, 1, spec.train_iterations)
    write_config(test_cfg, spec, 1, 1, n_test, spec.train_iterations)
    ctl = ["--threads", "1", "--config", str(ctl_cfg), "--seed", str(CONTROLLER_SEED)]
    start = time.perf_counter()
    run_cli(ledger, ctl + ["--out", str(ctl_data), "gen-data"], tracer, "gen-data")
    run_cli(ledger, ctl + ["--out", str(model), "train", "--data", str(ctl_data)],
            tracer, "train")
    run_cli(ledger, ["--threads", "1", "--config", str(test_cfg), "--seed", str(seed),
                     "--out", str(test_data), "gen-data"], tracer, "gen-data")
    test = ledger.run("load test split", datasets.load_dataset, test_data / "test.cfmm")
    val = ledger.run("load val split", datasets.load_dataset, ctl_data / "val.cfmm")
    ck = ledger.run("load checkpoint", checkpoints.load_checkpoint, model)
    elapsed = time.perf_counter() - start
    if test is None or val is None or ck is None:
        raise RuntimeError(f"set-up failed: {ledger.problems}")
    return {"setup_s": elapsed, "test": test, "val": val,
            "ck": ck, "ck_bytes": model.read_bytes()}


def decide_baseline(beta, cfg):
    return solver.solve_maxmin_bisection(rates.rate_context(beta, cfg))


def decide_dnn(beta, model, norm):
    return model.forward(norm.transform(beta))


def decide_online(beta, cfg, model, norm):
    return training.online_finetune(model, norm.transform(beta),
                                    rates.batch_sinr_coefficients(beta[None], cfg))


class Decider:
    """Times one decision per call and gates its result against the
    solver's bracket for the same snapshot."""

    def __init__(self, cfg, ck, test, ledger):
        self.cfg, self.ledger, self.tracer = cfg, ledger, None
        self.untraced = {"baseline": [], "dnn": [], "dnn-online": []}
        self.model, self.norm = ck.model, ck.normalizer
        self.beta = test.beta
        self.coeffs = rates.batch_sinr_coefficients(test.beta, cfg)

    def _call(self, method, i, fn, *args):
        """(result, seconds).  With a tracer the decision runs twice in a
        row, untraced (its time kept in self.untraced) and then traced, so
        that both see the same machine conditions."""
        start = time.perf_counter()
        result = self.ledger.run(f"{method} #{i}", fn, *args)
        elapsed = time.perf_counter() - start
        if self.tracer is None:
            return result, elapsed
        self.untraced[method].append(elapsed)
        self.tracer.snapshot = f"{method}:{i}"
        with self.tracer:
            start = time.perf_counter()
            result = self.ledger.run(f"{method} #{i}", self.tracer.span,
                                     f"bench.{method}", fn, *args)
            return result, time.perf_counter() - start

    def decide(self, method, i, sol=None, q_dnn=None):
        """(result, seconds); result None when the decision raised."""
        beta = self.beta[i]
        if method == "baseline":
            res, dt = self._call(method, i, decide_baseline, beta, self.cfg)
        elif method == "dnn":
            res, dt = self._call(method, i, decide_dnn, beta, self.model, self.norm)
        else:
            res, dt = self._call(method, i, decide_online, beta, self.cfg,
                                 self.model, self.norm)
        if res is None:
            return None, dt
        if method == "baseline":
            problems = gate.check_decision(method, res.q_star, self.coeffs, i,
                                           res.t_star)
        else:
            t_star = math.inf if sol is None else sol.t_star
            problems = gate.check_decision(method, res, self.coeffs, i, t_star)
            if q_dnn is not None and not problems:
                problems = gate.check_online_not_worse(res, q_dnn, self.coeffs, i)
        self.ledger.record(f"{method} #{i}", problems)
        return res, dt

    def run_all(self, n_base, n_online):
        """Closed loop over snapshots [0, n_base), method by method within
        each of BLOCKS consecutive blocks: baseline, dnn, then dnn-online
        on every stride-th snapshot of the block.  The blocks spread every
        method's samples over the whole run, so all three see the same
        machine conditions."""
        lat = {"baseline": [], "dnn": [], "dnn-online": []}
        base, dnn, online, improved = [], [], [], 0
        zero = {"dnn": 0, "dnn-online": 0}
        stride = max(1, n_base // n_online)
        for block in np.array_split(np.arange(n_base), BLOCKS):
            sols, q_dnn = {}, {}
            for i in block:
                sols[i], dt = self.decide("baseline", i)
                lat["baseline"].append(dt)
            for i in block:
                q_dnn[i], dt = self.decide("dnn", i, sols[i])
                lat["dnn"].append(dt)
            for i in block:
                if sols[i] is None or q_dnn[i] is None:
                    continue
                rb = worst_rate(self.coeffs, i, sols[i].q_star)
                base.append(rb)
                dnn.append(worst_rate(self.coeffs, i, q_dnn[i]))
                zero["dnn"] += dnn[-1] == 0.0
                if i % stride or i // stride >= n_online:
                    continue
                q, dt = self.decide("dnn-online", i, sols[i], q_dnn[i])
                lat["dnn-online"].append(dt)
                if q is not None:
                    online.append((rb, worst_rate(self.coeffs, i, q)))
                    improved += online[-1][1] > dnn[-1]
                    zero["dnn-online"] += online[-1][1] == 0.0
        quality = {"dnn_gap_pct": gap_pct(base, dnn),
                   "online_gap_pct": gap_pct(*zip(*online)) if online else math.nan,
                   "finetune_improved_frac": improved / max(len(online), 1),
                   "zero_rate_decisions": zero}
        return lat, quality


def _decide_sizes(spec, seconds):
    n_base = max(4, round(spec.baseline_per_s * seconds))
    return n_base, min(n_base, max(2, round(spec.online_per_s * seconds)))


def run_decide(spec, seed, seconds, work, trace, ledger):
    cfg = SystemConfig(n_aps=spec.n_aps, n_users=spec.n_users)
    n_base, n_online = _decide_sizes(spec, seconds)
    if trace:
        n_base, n_online = max(4, n_base // 2), max(2, n_online // 2)
    setups = [decide_setup(spec, seed, work / f"setup{r}", ledger, n_base)
              for r in range(1 if trace else SETUP_REPEATS)]
    if any(s["ck_bytes"] != setups[0]["ck_bytes"] for s in setups):
        ledger.record("set-up determinism", ["checkpoints differ between set-ups"])
    decider = Decider(cfg, setups[0]["ck"], setups[0]["test"], ledger)
    warm = setups[0]["val"].beta[0]
    decide_baseline(warm, cfg)
    decide_dnn(warm, decider.model, decider.norm)
    decide_online(warm, cfg, decider.model, decider.norm)
    detail = {"n_baseline": n_base, "n_online": n_online}
    if trace:
        return _traced_decide(spec, seed, work, ledger, decider, n_base,
                              n_online, detail)

    lat, quality = decider.run_all(n_base, n_online)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    metrics = {"setup_s": setup_s}
    latency_summary("baseline", lat["baseline"], metrics, detail)
    latency_summary("dnn", lat["dnn"], metrics, detail)
    latency_summary("online", lat["dnn-online"], metrics, detail)
    metrics["dnn_gap_pct"] = quality["dnn_gap_pct"]
    detail["online_gap_pct"] = quality["online_gap_pct"]
    metrics["pipeline_s"] = (setup_s + sum(lat["baseline"])
                             + sum(lat["dnn"]) + sum(lat["dnn-online"]))
    # fine-tuning steps: the training done inside the loop, timed over the
    # whole run; the controller is trained only in set-up, at the start
    metrics["train_iters_per_s"] = (training.FINETUNE_STEPS * len(lat["dnn-online"])
                                    / sum(lat["dnn-online"]))
    metrics["solve_per_s"] = len(lat["baseline"]) / sum(lat["baseline"])
    metrics["peak_rss_mb"] = peak_rss_mb()
    base = np.asarray(lat["baseline"])
    detail["speedup_vs_baseline"] = {
        "dnn": float(base.mean() / np.mean(lat["dnn"])),
        "dnn-online": float(base[::max(1, n_base // n_online)][:n_online].mean()
                            / np.mean(lat["dnn-online"])),
    }
    detail["finetune_improved_frac"] = quality["finetune_improved_frac"]
    detail["zero_rate_decisions"] = quality["zero_rate_decisions"]
    return _ungate(metrics, detail)


def _traced_decide(spec, seed, work, ledger, decider, n_base, n_online, detail):
    """Each decision untraced and then traced; count-based, so the counts
    repeat exactly at a seed."""
    tracer = Tracer()
    with tracer:
        setup = decide_setup(spec, seed, work / "traced-setup", ledger, n_base,
                             tracer)
    decider.tracer = tracer
    traced, quality = decider.run_all(n_base, n_online)
    decider.tracer = None
    untraced = decider.untraced
    metrics = layer_metrics(tracer, quality)
    layers = _layer_sums(tracer)
    for method, key in (("baseline", "baseline"), ("dnn-online", "online")):
        metrics[f"trace.{key}_untraced_p50_ms"] = float(np.median(untraced[method]) * 1e3)
        metrics[f"trace.{key}_layers_p50_ms"] = float(np.median(layers[method]) * 1e3)
        detail[f"{key}_traced_p50_ms"] = float(np.median(traced[method]) * 1e3)
    un_total = sum(sum(v) for v in untraced.values())
    tr_total = sum(sum(v) for v in traced.values())
    metrics["trace.overhead_pct"] = (tr_total / un_total - 1.0) * 100.0
    metrics["trace.spans"] = len(tracer.spans)
    detail["setup_s_traced"] = setup["setup_s"]
    return metrics, detail, tracer


def _layer_sums(tracer):
    """Per decision, the layer self time along its blocking steps: the sum
    of the self times of every cfmimo span under the decision's root."""
    sums = {}
    for s, own in zip(tracer.spans, tracer.self_times()):
        if s[1] >= 0 and s[5] and ":" in s[5]:
            sums[s[5]] = sums.get(s[5], 0.0) + own
    out = {"baseline": [], "dnn": [], "dnn-online": []}
    for snap, total in sums.items():
        out[snap.split(":")[0]].append(total)
    return out


# --- offline-30x5 --------------------------------------------------------------

REPORT_STAGES = (("solve-baseline", "baseline"), ("eval-max-power", "max-power"),
                 ("eval-dnn", "dnn"), ("finetune", "dnn-online"))


def run_pipeline(spec, seed, work, ledger, n_test, iterations, tracer=None):
    """gen-data -> train -> solve-baseline -> eval max-power -> eval dnn ->
    finetune -> audit of each report.  Returns stage seconds, reports and
    the test split."""
    work.mkdir(parents=True)
    cfg_path, data, model = work / "config.json", work / "data", work / "model.cfck"
    write_config(cfg_path, spec, TRAIN_SAMPLES, VAL_SAMPLES, n_test, iterations)
    base = ["--threads", "1", "--config", str(cfg_path), "--seed", str(seed)]
    stages = {}
    stages["gen-data"] = run_cli(ledger, base + ["--out", str(data), "gen-data"],
                                 tracer, "gen-data")
    stages["train"] = run_cli(
        ledger, base + ["--out", str(model), "train", "--data", str(data)],
        tracer, "train")
    evals = {
        "solve-baseline": ["solve-baseline", "--data", str(data)],
        "eval-max-power": ["eval", "--data", str(data), "--method", "max-power"],
        "eval-dnn": ["eval", "--data", str(data), "--method", "dnn",
                     "--checkpoint", str(model)],
        "finetune": ["finetune", "--data", str(data), "--checkpoint", str(model),
                     "--finetune-steps", str(spec.finetune_steps)],
    }
    for stage, method in REPORT_STAGES:
        out = work / "reports" / method
        stages[stage] = run_cli(ledger, base + ["--out", str(out)] + evals[stage],
                                tracer, stage)
    stages["audit"] = 0.0
    for _, method in REPORT_STAGES:
        stages["audit"] += run_cli(
            ledger, base + ["audit", str(work / "reports" / method),
                            "--data", str(data)], tracer, "audit")
    reps = {}
    for _, method in REPORT_STAGES:
        reps[method] = ledger.run(f"load {method} report", reports.load_report,
                                     work / "reports" / method)
    test = ledger.run("load test split", datasets.load_dataset, data / "test.cfmm")
    return stages, reps, test


def gate_reports(reps, test, cfg, ledger):
    """Per-sample checks on the stored allocations.  The baseline's achieved
    worst-user SINR is at least its t_star, so dividing it by
    (1 - BISECTION_REL_TOL) still bounds every method from above."""
    if test is None or any(r is None for r in reps.values()):
        return None
    coeffs = rates.batch_sinr_coefficients(test.beta, cfg)
    worst = {}
    for method, rep in reps.items():
        worst[method] = []
        for i in range(len(rep)):
            t_ref = gate.min_sinr(coeffs, i, reps["baseline"].q[i])
            problems = gate.check_decision(method, rep.q[i], coeffs, i, t_ref)
            if method == "dnn-online" and not problems:
                problems = gate.check_online_not_worse(
                    rep.q[i], reps["dnn"].q[i], coeffs, i)
            ledger.record(f"{method} report sample {i}", problems)
            worst[method].append(worst_rate(coeffs, i, rep.q[i]))
    return worst


def setup_pipeline(spec, seed, work, ledger):
    """Seconds of one tiny pipeline: 4 test snapshots, 5 iterations."""
    start = time.perf_counter()
    run_pipeline(spec, seed, work, ledger, 4, 5)
    return time.perf_counter() - start


def _offline_sizes(spec, seconds):
    return max(4, round(spec.test_per_s * seconds))


def run_offline(spec, seed, seconds, work, trace, ledger):
    cfg = SystemConfig(n_aps=spec.n_aps, n_users=spec.n_users)
    n_test = _offline_sizes(spec, seconds)
    # set-up: a tiny pipeline, so imports and first-call work are done
    setup_s = [setup_pipeline(spec, seed, work / "setup", ledger)]
    detail = {"n_test": n_test}
    if trace:
        n_half = max(4, n_test // 2)
        stages_u, _, _ = run_pipeline(spec, seed, work / "untraced", ledger,
                                      n_half, spec.train_iterations)
        tracer = Tracer()
        with tracer:
            stages_t, reps, test = run_pipeline(
                spec, seed, work / "traced", ledger, n_half,
                spec.train_iterations, tracer)
        worst = gate_reports(reps, test, cfg, ledger)
        improved = 0.0
        if worst is not None:
            improved = float(np.mean(np.asarray(worst["dnn-online"])
                                     > np.asarray(worst["dnn"])))
        metrics = layer_metrics(tracer, {"finetune_improved_frac": improved})
        metrics["trace.overhead_pct"] = (sum(stages_t.values())
                                         / sum(stages_u.values()) - 1.0) * 100.0
        untraced = reports.load_report(work / "untraced" / "reports" / "baseline").wall()
        untraced_o = reports.load_report(work / "untraced" / "reports" / "dnn-online").wall()
        solves = _span_durations(tracer, "solver.solve_maxmin_bisection")
        tunes = _span_durations(tracer, "training.online_finetune")
        metrics["trace.baseline_untraced_p50_ms"] = float(np.median(untraced) * 1e3)
        metrics["trace.baseline_layers_p50_ms"] = float(np.median(solves) * 1e3)
        metrics["trace.online_untraced_p50_ms"] = float(np.median(untraced_o) * 1e3)
        metrics["trace.online_layers_p50_ms"] = float(np.median(tunes) * 1e3)
        metrics["trace.spans"] = len(tracer.spans)
        detail["n_test"] = n_half
        return metrics, detail, tracer

    # OFFLINE_ROUNDS whole pipelines, each on its own share of the test
    # snapshots: the train stage is then timed at points spread over the run
    stages, train_s = {}, []
    wall = {"baseline": [], "dnn": [], "dnn-online": []}
    worst = {method: [] for _, method in REPORT_STAGES}
    for r, share in enumerate(np.array_split(np.arange(n_test), OFFLINE_ROUNDS)):
        # a set-up lasts 0.3 s, shorter than the machine's slow spells, so it
        # is repeated before every round to spread its samples over the run
        setup_s += [setup_pipeline(spec, seed, work / f"setup{r}.{k}", ledger)
                    for k in range(OFFLINE_SETUP_REPEATS)]
        round_work = work / f"round{r}"
        st, reps, test = run_pipeline(spec, seed * OFFLINE_ROUNDS + r, round_work,
                                      ledger, len(share), spec.train_iterations)
        round_worst = gate_reports(reps, test, cfg, ledger)
        ck = ledger.run("load checkpoint", checkpoints.load_checkpoint,
                        round_work / "model.cfck")
        if round_worst is None or ck is None:
            raise RuntimeError(f"pipeline failed: {ledger.problems}")
        for stage, sec in st.items():
            stages[stage] = stages.get(stage, 0.0) + sec
        train_s.append(st["train"])
        for method in worst:
            worst[method] += round_worst[method]
        wall["baseline"] += list(reps["baseline"].wall())
        wall["dnn-online"] += list(reps["dnn-online"].wall())
        # the dnn report's per-sample time is one batch forward of a few ms
        # divided by n, which varied by 40 % between runs; time the
        # per-snapshot decision with the round's checkpoint instead, as on
        # decide-*
        for i, beta in enumerate(test.beta):
            start = time.perf_counter()
            ledger.run(f"dnn #{r}.{i}", decide_dnn, beta, ck.model, ck.normalizer)
            wall["dnn"].append(time.perf_counter() - start)
    metrics = {"setup_s": statistics.median(setup_s)}
    latency_summary("baseline", wall["baseline"], metrics, detail)
    latency_summary("dnn", wall["dnn"], metrics, detail)
    latency_summary("online", wall["dnn-online"], metrics, detail)
    metrics["dnn_gap_pct"] = gap_pct(worst["baseline"], worst["dnn"])
    detail["online_gap_pct"] = gap_pct(worst["baseline"], worst["dnn-online"])
    metrics["pipeline_s"] = sum(stages.values())
    metrics["train_iters_per_s"] = spec.train_iterations / statistics.median(train_s)
    metrics["solve_per_s"] = n_test / stages["solve-baseline"]
    metrics["peak_rss_mb"] = peak_rss_mb()
    detail["stage_s"] = stages
    detail["train_s"] = train_s
    base = np.mean(wall["baseline"])
    detail["speedup_vs_baseline"] = {
        "dnn": float(base / np.mean(wall["dnn"])),
        "dnn-online": float(base / np.mean(wall["dnn-online"])),
    }
    detail["finetune_steps"] = spec.finetune_steps
    detail["zero_rate_decisions"] = {
        m: int(np.sum(np.asarray(worst[m]) == 0.0)) for m in ("dnn", "dnn-online")}
    return _ungate(metrics, detail)


def _ungate(metrics, detail):
    for name in PRINTED_ONLY:
        if name in metrics:
            detail[name] = metrics.pop(name)
    return metrics, detail


def _span_durations(tracer, name):
    return [s[4] - s[3] for s in tracer.spans if s[2] == name]


# --- per-layer metrics from spans -------------------------------------------

PER_LAYER = (
    "solver.probes_per_solve_p50", "solver.probes_per_solve_max",
    "solver.fp_iters_per_solve_p50", "solver.fp_iters_per_solve_max",
    "solver.direct_calls", "solver.probe_ms", "solver.self_ms",
    "rates.context_ms", "rates.batch_coeffs_ms",
    "mlp.normalize_ms", "mlp.forward_ms", "mlp.backward_ms", "mlp.adam_ms",
    "mlp.adam_calls",
    "training.loss_grad_ms", "training.finetune_self_ms", "training.validate_ms",
    "training.finetune_improved_frac", "training.iterations",
    "geometry.realization_us",
    "datasets.generate_s", "datasets.save_s", "datasets.load_s", "datasets.bytes",
    "checkpoints.save_s", "checkpoints.load_s", "checkpoints.bytes",
    "reports.evaluate_s.baseline", "reports.evaluate_s.max-power",
    "reports.evaluate_s.dnn", "reports.evaluate_s.dnn-online",
    "reports.save_s", "reports.audit_s", "reports.bytes",
    "cli.stage_s.gen-data", "cli.stage_s.train", "cli.stage_s.solve-baseline",
    "cli.stage_s.eval-max-power", "cli.stage_s.eval-dnn", "cli.stage_s.finetune",
    "cli.stage_s.audit",
) + tuple(f"self_s.{layer}" for layer in LAYERS + ("bench",)) + (
    "trace.overhead_pct", "trace.spans",
    "trace.baseline_untraced_p50_ms", "trace.baseline_layers_p50_ms",
    "trace.online_untraced_p50_ms", "trace.online_layers_p50_ms",
)

# exact counts: repeat bit for bit at a seed (report bytes do not, because
# per_sample.csv stores measured wall times)
EXACT_COUNTS = ("solver.probes_per_solve_p50", "solver.probes_per_solve_max",
                "solver.fp_iters_per_solve_p50", "solver.fp_iters_per_solve_max",
                "solver.direct_calls", "mlp.adam_calls", "training.iterations",
                "datasets.bytes", "checkpoints.bytes", "trace.spans")


def _mean_ms(values):
    return float(np.mean(values) * 1e3) if values else 0.0


def layer_metrics(tracer, extra):
    spans = tracer.spans
    self_s = tracer.self_times()
    by_name = {}
    for s, own in zip(spans, self_s):
        by_name.setdefault(s[2], []).append((s, own))

    def total(name, own=False):
        return sum(o if own else s[4] - s[3] for s, o in by_name.get(name, []))

    def durations(name):
        return [s[4] - s[3] for s, _ in by_name.get(name, [])]

    def selfs(name):
        return [o for _, o in by_name.get(name, [])]

    def top_level(names):
        """Inclusive time of spans in names whose ancestors are not in names."""
        out = 0.0
        for name in names:
            for s, _ in by_name.get(name, []):
                p = s[1]
                while p >= 0 and spans[p][2] not in names:
                    p = spans[p][1]
                if p < 0:
                    out += s[4] - s[3]
        return out

    def under(name, ancestor):
        count = 0
        for s, _ in by_name.get(name, []):
            p = s[1]
            while p >= 0 and spans[p][2] != ancestor:
                p = spans[p][1]
            count += p >= 0
        return count

    solves = by_name.get("solver.solve_maxmin_bisection", [])
    fp_per_solve = {s[0]: 0 for s, _ in solves}
    for s, _ in by_name.get("solver.feasibility_fixed_point", []):
        if s[1] in fp_per_solve:
            fp_per_solve[s[1]] += s[6]
    probes = [s[6] for s, _ in solves] or [0]
    fp = list(fp_per_solve.values()) or [0]
    n_solves = max(len(solves), 1)
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for s, own in zip(spans, self_s):
        layer_self[s[2].split(".")[0]] += own

    m = {
        "solver.probes_per_solve_p50": float(np.median(probes)),
        "solver.probes_per_solve_max": int(max(probes)),
        "solver.fp_iters_per_solve_p50": float(np.median(fp)),
        "solver.fp_iters_per_solve_max": int(max(fp)),
        "solver.direct_calls": len(by_name.get("solver.direct_feasibility", [])),
        "solver.probe_ms": _mean_ms(durations("solver.feasibility_fixed_point")),
        "solver.self_ms": layer_self["solver"] / n_solves * 1e3,
        "rates.context_ms": (total("rates.rate_context") + total(
            "rates.sinr_coefficients", own=True)) / n_solves * 1e3
        if solves else 0.0,
        "rates.batch_coeffs_ms": _mean_ms(durations("rates.batch_sinr_coefficients")),
        "mlp.normalize_ms": _mean_ms(durations("mlp.transform")),
        "mlp.forward_ms": _mean_ms(durations("mlp.forward")),
        "mlp.backward_ms": _mean_ms(durations("mlp.backward")),
        "mlp.adam_ms": _mean_ms(durations("mlp.adam_step")),
        "mlp.adam_calls": len(by_name.get("mlp.adam_step", [])),
        "training.loss_grad_ms": _mean_ms(selfs("training.batch_loss_and_grad")),
        "training.finetune_self_ms": _mean_ms(selfs("training.online_finetune")),
        "training.validate_ms": _mean_ms(durations("training.batch_loss")),
        "training.finetune_improved_frac": extra["finetune_improved_frac"],
        "training.iterations": under("training.batch_loss_and_grad",
                                     "training.train_model"),
        "geometry.realization_us": _mean_ms(
            durations("geometry.generate_realization")) * 1e3,
        "datasets.generate_s": top_level({"datasets.generate_splits",
                                          "datasets.generate_static_dataset"}),
        "datasets.save_s": total("datasets.save_dataset"),
        "datasets.load_s": total("datasets.load_dataset"),
        "datasets.bytes": sum(s[6] for s, _ in by_name.get("datasets.save_dataset", [])),
        "checkpoints.save_s": total("checkpoints.save_checkpoint"),
        "checkpoints.load_s": total("checkpoints.load_checkpoint"),
        "checkpoints.bytes": sum(
            s[6] for s, _ in by_name.get("checkpoints.save_checkpoint", [])),
        "reports.save_s": total("reports.save_report"),
        "reports.audit_s": total("reports.audit_report"),
        "reports.bytes": sum(s[6] for s, _ in by_name.get("reports.save_report", [])),
    }
    for stage, method in REPORT_STAGES:
        m[f"reports.evaluate_s.{method}"] = sum(
            s[4] - s[3] for s, _ in by_name.get("reports.evaluate", [])
            if s[5] == stage)
    for stage in ("gen-data", "train") + tuple(st for st, _ in REPORT_STAGES) + ("audit",):
        m[f"cli.stage_s.{stage}"] = sum(
            s[4] - s[3] for s, _ in by_name.get("cli.main", []) if s[5] == stage)
    for layer, value in layer_self.items():
        m[f"self_s.{layer}"] = value
    return m
