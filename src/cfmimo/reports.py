"""Evaluation runs, per-snapshot timing and on-disk report directories.

``decide`` turns one snapshot's gains into power coefficients for each
method that works a snapshot at a time; ``evaluate`` and ``bench_methods``
time it in the same loop.

A report directory holds four text files, all written with shortest
round-trip float formatting so that save/load/save reproduces every byte:

    summary.json                  headline numbers and provenance
    per_sample.csv                per snapshot: power vector and rates
    cdf_min_rate.csv              empirical CDF of the worst-user rate
    cdf_user_net_throughput.csv   empirical CDF of pooled per-user bit rates

The audit entry point regenerates all four files from the stored power
vectors and the dataset and byte-compares them against disk, which catches
both tampering and stale results.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoints import Checkpoint
from .config import SystemConfig, scenario_digest
from .datasets import Dataset
from .errors import FormatError, ValidationError, refuse_overwrite
from .rates import batch_rates, batch_sinr_coefficients, net_throughput
from .solver import solve_maxmin_bisection
from .training import FINETUNE_LR, FINETUNE_STEPS, online_finetune

METHODS = ("baseline", "max-power", "dnn", "dnn-online")
# the methods that decide one snapshot at a time, see ``decide``
BENCH_METHODS = ("baseline", "dnn", "dnn-online")

SUMMARY_NAME = "summary.json"
PER_SAMPLE_NAME = "per_sample.csv"
CDF_MIN_RATE_NAME = "cdf_min_rate.csv"
CDF_NET_NAME = "cdf_user_net_throughput.csv"

LIKELY_PERCENTILE = 5.0


@dataclass
class RunReport:
    method: str
    n_aps: int
    n_users: int
    dataset_seed: int
    sample_offset: int
    dataset_digest: str        # hex
    net_factor: float          # bits/s per bit/s/Hz after overheads
    q: np.ndarray              # (N, K)
    rates: np.ndarray          # (N, K) bits/s/Hz
    wall_s: np.ndarray | None = None  # (N,) seconds spent producing q

    def __len__(self) -> int:
        return self.q.shape[0]

    def min_rates(self) -> np.ndarray:
        return self.rates.min(axis=1)

    def net(self) -> np.ndarray:
        return self.net_factor * self.rates

    def wall(self) -> np.ndarray:
        if self.wall_s is None:
            return np.zeros(len(self))
        return self.wall_s

    def summary(self) -> dict:
        min_rates = self.min_rates()
        pooled = self.net().ravel()
        return {
            "method": self.method,
            "n_samples": len(self),
            "n_aps": self.n_aps,
            "n_users": self.n_users,
            "dataset_seed": self.dataset_seed,
            "sample_offset": self.sample_offset,
            "dataset_digest": self.dataset_digest,
            "net_factor": self.net_factor,
            "avg_min_rate": float(min_rates.mean()),
            "median_min_rate": float(np.median(min_rates)),
            "p95_likely_user_net_throughput": float(
                np.percentile(pooled, LIKELY_PERCENTILE)
            ),
            "avg_user_net_throughput": float(pooled.mean()),
        }


def decide(method, beta, cfg, checkpoint, steps, lr) -> np.ndarray:
    """Gains (M, K) of one snapshot to q (K,), for a method in BENCH_METHODS.

    Each runs what a deployment runs when fresh gains arrive: SINR
    coefficients and bisection; input transform and forward pass; or
    coefficients, transform and ``steps`` fine-tuning steps.
    """
    if method == "dnn":
        return checkpoint.model.forward(checkpoint.normalizer.transform(beta))
    coeffs = batch_sinr_coefficients(beta[None], cfg)
    if method == "baseline":
        return solve_maxmin_bisection(coeffs.sample(0)).q_star
    return online_finetune(checkpoint.model, checkpoint.normalizer.transform(beta),
                           coeffs, steps=steps, lr=lr)


def _timed_decisions(methods, beta, cfg, checkpoint, steps, lr):
    """Per snapshot, per method in turn: ``decide`` and its seconds, as
    dicts method -> (N, K) q and method -> (N,) seconds.  Interleaving the
    methods keeps drift in machine speed out of their ratios."""
    n, k = beta.shape[0], beta.shape[2]
    q = {method: np.empty((n, k)) for method in methods}
    wall = {method: np.empty(n) for method in methods}
    for i in range(n):
        for method in methods:
            start = time.perf_counter()
            q_i = decide(method, beta[i], cfg, checkpoint, steps, lr)
            wall[method][i] = time.perf_counter() - start
            q[method][i] = q_i
    return q, wall


def _check_inputs(methods, known, dataset, cfg, checkpoint):
    for method in methods:
        if method not in known:
            raise ValidationError(f"unknown method {method!r}, pick from {known}")
    if dataset.digest != scenario_digest(cfg):
        raise ValidationError("dataset was generated under a different scenario")
    if len(dataset) == 0:
        raise ValidationError("the dataset holds no snapshots")
    if {"dnn", "dnn-online"} & set(methods):
        if checkpoint is None:
            raise ValidationError("the network methods need a checkpoint")
        if (checkpoint.n_aps, checkpoint.n_users) != (cfg.n_aps, cfg.n_users):
            raise ValidationError("checkpoint dims do not match the scenario")


def evaluate(
    method: str,
    dataset: Dataset,
    cfg: SystemConfig,
    *,
    checkpoint: Checkpoint | None = None,
    finetune_steps: int = FINETUNE_STEPS,
    finetune_lr: float = FINETUNE_LR,
) -> RunReport:
    """Run one allocation method over a dataset and collect the rates.

    ``wall_s`` holds the seconds spent producing each sample's q.  For
    ``baseline`` and ``dnn-online`` it is the time of ``decide`` on that
    snapshot, with no warm-up: the cost a deployment pays per snapshot and
    the quantity ``bench_methods`` reports.  ``max-power`` and ``dnn`` run as
    one vectorized batch whose time is spread evenly over the samples.
    """
    _check_inputs((method,), METHODS, dataset, cfg, checkpoint)
    beta = dataset.beta
    n, k = beta.shape[0], beta.shape[2]
    if method in ("max-power", "dnn"):
        started = time.perf_counter()
        q = (np.ones((n, k)) if method == "max-power"
             else checkpoint.model.forward(checkpoint.normalizer.transform(beta)))
        wall = np.full(n, (time.perf_counter() - started) / n)
    else:
        q, wall = _timed_decisions((method,), beta, cfg, checkpoint,
                                   finetune_steps, finetune_lr)
        q, wall = q[method], wall[method]

    rates = batch_rates(batch_sinr_coefficients(beta, cfg), q)
    return RunReport(
        method=method,
        n_aps=cfg.n_aps,
        n_users=cfg.n_users,
        dataset_seed=dataset.seed,
        sample_offset=dataset.sample_offset,
        dataset_digest=dataset.digest.hex(),
        net_factor=float(net_throughput(1.0, cfg)),
        q=q,
        rates=rates,
        wall_s=wall,
    )


def bench_methods(
    dataset: Dataset,
    cfg: SystemConfig,
    *,
    checkpoint: Checkpoint | None = None,
    methods=BENCH_METHODS,
    n_samples: int | None = None,
    warmup: int = 3,
    finetune_steps: int = FINETUNE_STEPS,
    finetune_lr: float = FINETUNE_LR,
) -> dict:
    """Time every method per snapshot; returns method -> seconds array.

    Each method first runs ``warmup`` decisions on the first snapshot; then
    the first ``n_samples`` snapshots are timed as ``evaluate`` times them.
    """
    _check_inputs(methods, BENCH_METHODS, dataset, cfg, checkpoint)
    if n_samples is not None and n_samples < 1:
        raise ValidationError(f"need at least 1 snapshot, not {n_samples}")
    if warmup < 0:
        raise ValidationError(f"warm-up count must be >= 0, not {warmup}")
    beta = dataset.beta if n_samples is None else dataset.beta[:n_samples]
    for method in methods:
        for _ in range(warmup):
            decide(method, beta[0], cfg, checkpoint, finetune_steps, finetune_lr)
    return _timed_decisions(methods, beta, cfg, checkpoint,
                            finetune_steps, finetune_lr)[1]


# --- serialization ----------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _summary_text(report: RunReport) -> str:
    return json.dumps(report.summary(), indent=2, sort_keys=True) + "\n"


def _per_sample_text(report: RunReport) -> str:
    k = report.n_users
    cols = ["sample", "min_rate"]
    cols += [f"q_{i}" for i in range(k)]
    cols += [f"rate_{i}" for i in range(k)]
    cols += [f"net_{i}" for i in range(k)]
    cols += ["wall_s"]
    lines = [",".join(cols)]
    min_rates = report.min_rates()
    net = report.net()
    wall = report.wall()
    for i in range(len(report)):
        row = [str(report.sample_offset + i), _fmt(min_rates[i])]
        row += [_fmt(v) for v in report.q[i]]
        row += [_fmt(v) for v in report.rates[i]]
        row += [_fmt(v) for v in net[i]]
        row.append(_fmt(wall[i]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _cdf_text(values: np.ndarray) -> str:
    order = np.sort(np.asarray(values, dtype=float).ravel())
    n = len(order)
    lines = ["value,cdf"]
    lines += [f"{_fmt(v)},{_fmt((i + 1) / n)}" for i, v in enumerate(order)]
    return "\n".join(lines) + "\n"


def _render(report: RunReport) -> dict:
    return {
        SUMMARY_NAME: _summary_text(report),
        PER_SAMPLE_NAME: _per_sample_text(report),
        CDF_MIN_RATE_NAME: _cdf_text(report.min_rates()),
        CDF_NET_NAME: _cdf_text(report.net()),
    }


def save_report(dir_path, report: RunReport, *, force: bool = False):
    dir_path = Path(dir_path)
    refuse_overwrite(dir_path, force)
    if dir_path.exists() and not dir_path.is_dir():
        raise ValidationError(f"{dir_path} is not a directory")
    dir_path.mkdir(parents=True, exist_ok=True)
    for name, text in _render(report).items():
        (dir_path / name).write_text(text, encoding="ascii")


def load_report(dir_path) -> RunReport:
    dir_path = Path(dir_path)
    summary_path = dir_path / SUMMARY_NAME
    if not summary_path.exists():
        raise FormatError(f"{dir_path}: no {SUMMARY_NAME}")
    try:
        summary = json.loads(summary_path.read_text(encoding="ascii"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{summary_path}: {exc}") from exc
    needed = {"method", "n_samples", "n_aps", "n_users", "dataset_seed",
              "sample_offset", "dataset_digest", "net_factor"}
    missing = needed - set(summary)
    if missing:
        raise FormatError(f"{summary_path}: missing keys {sorted(missing)}")

    n = summary["n_samples"]
    k = summary["n_users"]
    lines = (dir_path / PER_SAMPLE_NAME).read_text(encoding="ascii").splitlines()
    if len(lines) != n + 1:
        raise FormatError(f"{dir_path}: expected {n} data rows")
    q = np.empty((n, k))
    rates = np.empty((n, k))
    wall = np.empty(n)
    try:
        for i, line in enumerate(lines[1:]):
            parts = line.split(",")
            if len(parts) != 3 + 3 * k:
                raise FormatError(f"{dir_path}: bad row {i}")
            q[i] = [float(v) for v in parts[2:2 + k]]
            rates[i] = [float(v) for v in parts[2 + k:2 + 2 * k]]
            wall[i] = float(parts[-1])
    except ValueError as exc:
        raise FormatError(f"{dir_path}: unparsable number: {exc}") from exc
    return RunReport(
        method=summary["method"],
        n_aps=summary["n_aps"],
        n_users=k,
        dataset_seed=summary["dataset_seed"],
        sample_offset=summary["sample_offset"],
        dataset_digest=summary["dataset_digest"],
        net_factor=summary["net_factor"],
        q=q,
        rates=rates,
        wall_s=wall,
    )


def audit_report(dir_path, dataset: Dataset, cfg: SystemConfig) -> list[str]:
    """Recompute a report from its stored power vectors and compare bytes.

    Returns a list of human-readable discrepancies, empty when clean.
    """
    dir_path = Path(dir_path)
    problems = []
    report = load_report(dir_path)
    if report.dataset_digest != dataset.digest.hex():
        problems.append("report and dataset disagree on the scenario digest")
    if dataset.digest != scenario_digest(cfg):
        problems.append("dataset does not match the given config")
    if len(report) != len(dataset):
        problems.append(
            f"report covers {len(report)} samples, dataset has {len(dataset)}"
        )
        return problems
    if report.q.min() < 0.0 or report.q.max() > 1.0 + 1e-12:
        problems.append("stored power coefficients leave [0, 1]")

    fresh_rates = batch_rates(batch_sinr_coefficients(dataset.beta, cfg), report.q)
    dev = np.abs(fresh_rates - report.rates)
    scale = np.maximum(np.abs(fresh_rates), 1e-12)
    worst = float((dev / scale).max())
    if worst > 1e-9:
        problems.append(
            f"stored rates deviate from recomputation, max rel error {worst:.3e}"
        )
    fresh = replace(report, net_factor=float(net_throughput(1.0, cfg)),
                    rates=fresh_rates)
    for name, text in _render(fresh).items():
        on_disk = (dir_path / name)
        if not on_disk.exists():
            problems.append(f"{name} is missing")
        elif on_disk.read_text(encoding="ascii") != text:
            problems.append(f"{name} does not match its regeneration")
    return problems
