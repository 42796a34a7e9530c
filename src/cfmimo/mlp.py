"""Feed-forward power-control network on a flat parameter vector.

The network maps a normalized snapshot of the M*K large-scale gains to K
per-user power coefficients in [0, 1].  All weights and biases live in a
single contiguous float64 array; the per-layer matrices are views into it,
so optimizer updates on the flat array are immediately visible to the
forward pass and checkpointing is a single array dump.  Hidden layers use
ELU with alpha = 1, so its derivative follows from its output alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

INPUT_TRANSFORMS = ("linear", "log")


def elu(z):
    # expm1(min(z, 0)) is 0 < z above zero and >= z below: the two branches
    return np.maximum(z, np.expm1(np.minimum(z, 0.0)))


def elu_grad(out):
    """Derivative of elu from its output alone: 1 above 0, out + 1 below."""
    return np.minimum(out, 0.0) + 1.0


def sigmoid(z):
    # exp of a non-positive argument only, so it never overflows
    t = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, t) / (1.0 + t)


def layer_sizes(n_aps: int, n_users: int) -> list[int]:
    """Input width, three hidden widths, output width."""
    mk = n_aps * n_users
    return [mk, mk, n_users, n_aps, n_users]


def parameter_count(sizes) -> int:
    return sum((fi + 1) * fo for fi, fo in zip(sizes[:-1], sizes[1:]))


def _layer_views(sizes, flat):
    weights, biases = [], []
    offset = 0
    for fi, fo in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[offset:offset + fi * fo].reshape(fo, fi))
        offset += fi * fo
        biases.append(flat[offset:offset + fo])
        offset += fo
    return weights, biases


class Mlp:
    """Fully connected net, elu hidden layers, sigmoid output."""

    def __init__(self, sizes, params: np.ndarray | None = None):
        self.sizes = [int(s) for s in sizes]
        if len(self.sizes) < 2 or any(s < 1 for s in self.sizes):
            raise ValidationError("layer sizes must be positive, two at least")
        n = parameter_count(self.sizes)
        if params is None:
            params = np.zeros(n)
        else:
            params = np.ascontiguousarray(params, dtype=np.float64)
            if params.shape != (n,):
                raise ValidationError(
                    f"expected {n} parameters, got shape {params.shape}"
                )
        self.params = params
        self.weights, self.biases = _layer_views(self.sizes, params)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def clone(self) -> "Mlp":
        return Mlp(self.sizes, self.params.copy())

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Power coefficients for one input (in,) or a batch (B, in)."""
        if x.ndim == 1:
            return self.forward_cached(x[None, :])[0][0]
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Batch forward that keeps every layer's output for backward."""
        acts = [x]
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w.T
            z += b
            acts.append(sigmoid(z) if i == last else elu(z))
        return acts[-1], acts

    def backward(self, acts, grad_out, out=None) -> np.ndarray:
        """Gradient of sum_b loss_b wrt the flat parameters.

        grad_out is d(loss)/d(output) for the batch, shape (B, out).  The
        gradient is written into out, a flat array shaped like the
        parameters, when given, else into a new one; every entry is written.
        """
        grad = np.empty_like(self.params) if out is None else out
        gws, gbs = _layer_views(self.sizes, grad)
        act = acts[-1]
        delta = grad_out * act * (1.0 - act)
        for i in range(self.n_layers - 1, -1, -1):
            np.matmul(delta.T, acts[i], out=gws[i])
            np.sum(delta, axis=0, out=gbs[i])
            if i > 0:
                delta = (delta @ self.weights[i]) * elu_grad(acts[i])
        return grad


def build_model(n_aps: int, n_users: int, rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights, zero biases."""
    model = Mlp(layer_sizes(n_aps, n_users))
    for w in model.weights:
        fo, fi = w.shape
        lim = math.sqrt(6.0 / (fi + fo))
        w[...] = rng.uniform(-lim, lim, size=w.shape)
    return model


@dataclass(frozen=True)
class Normalizer:
    """Input standardization frozen from training-set statistics."""

    mode: str
    mean: np.ndarray  # (M*K,)
    std: np.ndarray   # (M*K,)

    def __post_init__(self):
        if self.mode not in INPUT_TRANSFORMS:
            raise ValidationError(f"unknown input transform {self.mode!r}")

    def transform(self, beta: np.ndarray) -> np.ndarray:
        """Flatten (..., M, K) gains to (..., M*K) network inputs."""
        return (_features(beta, self.mode) - self.mean) / self.std


def _features(beta: np.ndarray, mode: str) -> np.ndarray:
    arr = np.asarray(beta, dtype=float)
    flat = arr.reshape(*arr.shape[:-2], -1)
    if mode == "log":
        return 10.0 * np.log10(flat)
    return flat


def fit_normalizer(beta: np.ndarray, mode: str = "linear") -> Normalizer:
    """Per-feature mean/std over the training stack (N, M, K)."""
    if beta.ndim != 3:
        raise ValidationError("normalizer statistics need an (N, M, K) stack")
    feats = _features(beta, mode)
    std = np.maximum(feats.std(axis=0), 1e-12)
    return Normalizer(mode=mode, mean=feats.mean(axis=0), std=std)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    # two parameter-sized work arrays for adam_step
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n))


def adam_step(params, grad, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam update, in place on params.

    Computes, with c1 = 1 - beta1**step and c2 = 1 - beta2**step,

        m = beta1 m + (1 - beta1) g
        v = beta2 v + (1 - beta2) g g
        params -= lr (m / c1) / (sqrt(v / c2) + eps)

    operation by operation in this order, into the state's scratch arrays,
    so nothing parameter-sized is allocated and the result is bit-identical
    to the expression as written.  Folding 1/c1 and 1/c2 into the step size
    would save passes but rounds differently.
    """
    state.step += 1
    upd, denom = state.scratch
    np.multiply(grad, 1.0 - beta1, out=upd)
    state.m *= beta1
    state.m += upd
    np.multiply(grad, 1.0 - beta2, out=upd)
    upd *= grad
    state.v *= beta2
    state.v += upd
    np.divide(state.v, 1.0 - beta2 ** state.step, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(state.m, 1.0 - beta1 ** state.step, out=upd)
    upd *= lr
    upd /= denom
    params -= upd
