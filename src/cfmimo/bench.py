"""Per-snapshot wall-clock comparison of the allocation methods.

Each method is timed on the same snapshots, one at a time and the methods
interleaved per snapshot after each method's warm-up, measuring
exactly what a deployment would run when a fresh set of gains arrives:
the solver needs the SINR coefficients plus the bisection, the network
needs the input transform plus one forward pass, and the online variant
additionally pays for its adaptation steps.
"""

from __future__ import annotations

import time

import numpy as np

from .checkpoints import Checkpoint
from .config import SystemConfig
from .datasets import Dataset
from .errors import ValidationError
from .rates import batch_sinr_coefficients
from .solver import solve_maxmin_bisection
from .training import FINETUNE_LR, FINETUNE_STEPS, online_finetune

BENCH_METHODS = ("baseline", "dnn", "dnn-online")


def _run_once(method, beta_i, cfg, model, norm, steps, lr):
    if method == "dnn":
        return model.forward(norm.transform(beta_i))
    coeffs = batch_sinr_coefficients(beta_i[None], cfg)
    if method == "baseline":
        return solve_maxmin_bisection(coeffs.sample(0)).q_star
    return online_finetune(model, norm.transform(beta_i), coeffs,
                           steps=steps, lr=lr)


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
    """Time every method per snapshot; returns method -> seconds array."""
    bad = set(methods) - set(BENCH_METHODS)
    if bad:
        raise ValidationError(f"cannot bench {sorted(bad)}")
    model = norm = None
    if any(m.startswith("dnn") for m in methods):
        if checkpoint is None:
            raise ValidationError("benching the network needs a checkpoint")
        model, norm = checkpoint.model, checkpoint.normalizer
    if n_samples is not None and n_samples < 1:
        raise ValidationError(f"need at least 1 snapshot, not {n_samples}")
    if warmup < 0:
        raise ValidationError(f"warm-up count must be >= 0, not {warmup}")
    beta = dataset.beta if n_samples is None else dataset.beta[:n_samples]
    if len(beta) == 0:
        raise ValidationError("no snapshots to bench")

    for method in methods:
        for _ in range(warmup):
            _run_once(method, beta[0], cfg, model, norm,
                      finetune_steps, finetune_lr)
    # interleaved snapshot by snapshot, so that drift in machine speed
    # between separate per-method loops does not enter the ratios
    out = {method: np.empty(len(beta)) for method in methods}
    for i in range(len(beta)):
        for method in methods:
            start = time.perf_counter()
            _run_once(method, beta[i], cfg, model, norm,
                      finetune_steps, finetune_lr)
            out[method][i] = time.perf_counter() - start
    return out


def speedup_table(times: dict) -> dict:
    """Mean per-snapshot speedup of every method relative to the solver."""
    base = times["baseline"].mean()
    return {m: float(base / t.mean()) for m, t in times.items()}
