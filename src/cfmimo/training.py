"""Unsupervised training of the power-control network.

The loss is the negative batch mean of the worst per-user rate, so gradient
descent pushes the network toward max-min fair allocations without labeled
targets.  The rate gradient is analytic; backpropagation only ever sees the
subgradient through the single worst user of each sample (lowest index on
ties).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import FINETUNE_LR, FINETUNE_STEPS, SystemConfig, TrainConfig
from .errors import ValidationError
from .mlp import (AdamState, Mlp, Normalizer, adam_step, build_model, elu, elu_grad,
                  fit_normalizer)
from .rates import LN2, BatchedCoefficients, batch_rates, batch_sinr_coefficients


def batch_loss(model: Mlp, x: np.ndarray, coeffs: BatchedCoefficients) -> float:
    q = model.forward(x)
    return -float(batch_rates(coeffs, q).min(axis=1).mean())


def batch_loss_and_grad(model: Mlp, x: np.ndarray, coeffs: BatchedCoefficients,
                        *, cache=None, out=None):
    """Loss and its gradient wrt the flat parameter vector.

    cache is ``model.forward_cached(x)`` when the caller already has it for
    the current parameters.  The gradient is written into out when given
    (see ``Mlp.backward``).
    """
    if cache is None:
        cache = model.forward_cached(x)
    q, acts = cache
    denom = np.einsum("nki,ni->nk", coeffs.coupling, q) + coeffs.noise
    sinr = q * coeffs.signal / denom
    rates = np.log1p(sinr) / LN2
    worst = rates.argmin(axis=1)

    b = len(worst)
    rows = np.arange(b)
    a_w = coeffs.signal[rows, worst]
    d_w = denom[rows, worst]
    s_w = sinr[rows, worst]
    q_w = q[rows, worst]
    coup_w = coeffs.coupling[rows, worst, :]

    # d rate_w / d q_i = (a/d) / (ln2 (1+s)) * (1[i=w] - q_w c[w,i] / d)
    onehot = np.zeros_like(q)
    onehot[rows, worst] = 1.0
    factor = (a_w / d_w) / (LN2 * (1.0 + s_w) * b)
    grad_q = -factor[:, None] * (onehot - (q_w / d_w)[:, None] * coup_w)

    loss = -float(rates[rows, worst].mean())
    return loss, model.backward(acts, grad_q, out=out)


@dataclass
class TrainingRun:
    """Outcome of one training call, with the best-validation snapshot."""

    model: Mlp
    normalizer: Normalizer
    history: list = field(default_factory=list)  # (iteration, train, val)
    best_iteration: int = 0
    best_val_loss: float = np.inf


def train_model(
    train_beta: np.ndarray,
    val_beta: np.ndarray,
    cfg: SystemConfig,
    tcfg: TrainConfig,
    *,
    progress=None,
) -> TrainingRun:
    """Train from scratch on a stack of snapshots.

    Two independent random streams are spawned from the seed, one for the
    weight init and one for the batch draws, so changing the iteration count
    never perturbs the initial weights.  Batches are drawn with replacement.
    The returned model carries the parameters of the best validation loss.
    """
    if train_beta.ndim != 3 or val_beta.ndim != 3:
        raise ValidationError("training needs (N, M, K) snapshot stacks")
    n = train_beta.shape[0]
    if tcfg.batch_size > n:
        raise ValidationError("batch size exceeds the training set")

    init_ss, batch_ss = np.random.SeedSequence(tcfg.seed).spawn(2)
    model = build_model(cfg.n_aps, cfg.n_users, np.random.default_rng(init_ss))
    batch_rng = np.random.default_rng(batch_ss)

    norm = fit_normalizer(train_beta, tcfg.input_transform)
    x_train = norm.transform(train_beta)
    x_val = norm.transform(val_beta)
    co_train = batch_sinr_coefficients(train_beta, cfg)
    co_val = batch_sinr_coefficients(val_beta, cfg)

    run = TrainingRun(model=model, normalizer=norm)
    best_params = model.params.copy()
    opt = AdamState.zeros(model.params.size)
    grad = np.empty_like(model.params)

    def validate(it, train_loss):
        val_loss = batch_loss(model, x_val, co_val)
        run.history.append((it, train_loss, val_loss))
        if val_loss < run.best_val_loss:
            run.best_val_loss = val_loss
            run.best_iteration = it
            best_params[...] = model.params
        if progress is not None:
            progress(it, train_loss, val_loss)

    validate(0, batch_loss(model, x_train, co_train))
    for it in range(1, tcfg.iterations + 1):
        idx = batch_rng.integers(0, n, size=tcfg.batch_size)
        loss, _ = batch_loss_and_grad(model, x_train[idx], co_train.take(idx),
                                      out=grad)
        adam_step(model.params, grad, opt, tcfg.learning_rate,
                  tcfg.adam_beta1, tcfg.adam_beta2, tcfg.adam_eps)
        if it % tcfg.validation_every == 0 or it == tcfg.iterations:
            validate(it, loss)

    model.params[...] = best_params
    return run


def _first_layer_shift(x, mu, nu, step, lr, beta1, beta2, eps, rows):
    """Change of h = W1 x under one Adam step on W1, never forming W1.

    With a fixed input x, W1's gradient is always d1 x^T, so its Adam
    moments are m = mu x^T and v = nu (x*x)^T, where mu and nu are the
    moments of the gradients d1 (b1's moments).  The Adam step on W1 then
    moves W1 x by, with c1 = 1 - beta1**step, c2 = 1 - beta2**step and
    a = sqrt(nu / c2),

        dh_i = -lr (mu_i / c1) sum_j x_j^2 / (a_i |x_j| + eps)

    rows is a (len(mu), len(x)) work array.
    """
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    np.einsum("i,j->ij", np.sqrt(nu / c2), np.abs(x), out=rows)
    rows += eps
    np.reciprocal(rows, out=rows)
    return -lr * (mu / c1) * (rows @ (x * x))


def online_finetune(
    model: Mlp,
    x: np.ndarray,
    coeffs: BatchedCoefficients,
    *,
    steps: int = FINETUNE_STEPS,
    lr: float = FINETUNE_LR,
) -> np.ndarray:
    """Adapt the trained net to one snapshot with Adam, return the best q.

    x is the normalized input of that single snapshot and coeffs its
    coefficient stack of length one.  The candidate set covers the untouched
    network (``model.forward(x)``) and the state after every update step;
    the q with the largest worst-user rate wins (the earliest on ties).  The
    caller's model is never mutated.

    The first layer's weights W1 stay implicit: the network sees them only
    through h = W1 x, and x is the same at every step.  Adam trains the flat
    tail of the parameters (b1 and every later layer), and after each step
    h moves by ``_first_layer_shift``, exactly what the same Adam step on W1
    would do to W1 x.  The result equals full-parameter Adam up to rounding.
    Each step's forward pass yields both the candidate of the previous
    update and the cache for the next gradient.
    """
    if steps < 0:
        raise ValidationError(f"fine-tuning steps must be >= 0, got {steps}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValidationError(f"fine-tuning step size must be finite and > 0, got {lr}")
    if model.n_layers < 2:
        raise ValidationError("fine-tuning needs a network of two layers at least")
    # the defaults of the training config, read off the class
    beta1, beta2, eps = (TrainConfig.adam_beta1, TrainConfig.adam_beta2,
                         TrainConfig.adam_eps)
    n0, n1, n2 = model.sizes[:3]
    tail = model.params[n0 * n1:].copy()  # b1, then every later layer
    bias1 = tail[:n1]
    upper = Mlp(model.sizes[1:], tail[n1:])
    opt = AdamState.zeros(tail.size)
    grad = np.empty_like(tail)
    grad_b1 = grad[:n1]
    grad_b2 = grad[n1 + n1 * n2:n1 + n1 * n2 + n2]
    rows = np.empty((n1, n0))

    best_q = model.forward(x)
    best_rate = batch_rates(coeffs, best_q[None, :]).min()
    h = (x[None, :] @ model.weights[0].T)[0]
    a1 = elu(h + bias1)[None, :]
    cache = upper.forward_cached(a1)
    for _ in range(steps):
        batch_loss_and_grad(upper, a1, coeffs, cache=cache, out=grad[n1:])
        np.matmul(grad_b2, upper.weights[0], out=grad_b1)
        grad_b1 *= elu_grad(a1[0])
        adam_step(tail, grad, opt, lr, beta1, beta2, eps)
        h += _first_layer_shift(x, opt.m[:n1], opt.v[:n1], opt.step,
                                lr, beta1, beta2, eps, rows)
        a1 = elu(h + bias1)[None, :]
        cache = upper.forward_cached(a1)
        rate = batch_rates(coeffs, cache[0]).min()
        if rate > best_rate:
            best_rate = rate
            best_q = cache[0][0]
    return best_q
