"""Closed-form uplink rates under matched-filter combining.

Everything here is a deterministic function of the large-scale gains beta
and the normalized transmit SNRs; no small-scale channel draws are needed.
The pilot model is orthogonal: each user has its own pilot of length
tau >= K (``SystemConfig`` enforces that), so no user's channel estimate
picks up another user's channel, and tau enters only through the MMSE
estimation coefficients.  The per-user SINR factors into

    sinr_k(q) = q_k * signal_k / ((coupling @ q)_k + noise_k)

where ``signal``, ``coupling`` and ``noise`` depend only on the network.
That decomposition is the single source of truth used by the max-min solver
and by the neural controller's gradients.  One kernel computes it over
(..., M, K) gains: ``sinr_coefficients`` for one snapshot and
``batch_sinr_coefficients`` for a stack run the same arithmetic, so a
snapshot's coefficients are bit-identical whichever route built them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import ValidationError

LN2 = math.log(2.0)


def c_coefficients(beta, tau: int, rho_p: float):
    """MMSE estimation coefficients c for each AP/user pair under
    orthogonal pilots of length tau.

    c[m, k] = sqrt(tau rho_p) beta[m, k] / (tau rho_p beta[m, k] + 1)
    """
    beta = np.asarray(beta, dtype=float)
    trp = tau * rho_p
    return math.sqrt(trp) * beta / (trp * beta + 1.0)


def gamma_coefficients(beta, tau: int, rho_p: float):
    """Mean-square channel-estimate gains gamma = sqrt(tau rho_p) beta c."""
    beta = np.asarray(beta, dtype=float)
    return math.sqrt(tau * rho_p) * beta * c_coefficients(beta, tau, rho_p)


@dataclass
class RateContext:
    """One network snapshot prepared for rate evaluation."""

    beta: np.ndarray    # (M, K)
    gamma: np.ndarray   # (M, K)
    rho: float

    @property
    def n_users(self) -> int:
        return self.beta.shape[1]


def _checked_gains(beta, ndim: int):
    """Validate an (M, K) or, with ndim=3, (N, M, K) gain array."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != ndim:
        raise ValidationError(
            "beta must have shape " + ("(N, M, K)" if ndim == 3 else "(M, K)"))
    if not np.all(np.isfinite(beta)) or beta.min() <= 0:
        raise ValidationError("beta entries must be finite and positive")
    return beta


def rate_context(beta, cfg: SystemConfig) -> RateContext:
    """Build a RateContext from gains and a scenario config."""
    beta = _checked_gains(beta, 2)
    gamma = gamma_coefficients(beta, cfg.tau, cfg.rho_p)
    return RateContext(beta=beta, gamma=gamma, rho=cfg.rho)


@dataclass
class SinrCoefficients:
    """Network-dependent SINR pieces: sinr = q*signal / (coupling@q + noise)."""

    signal: np.ndarray    # (K,)  coherent beamforming gain
    coupling: np.ndarray  # (K, K) beamforming uncertainty
    noise: np.ndarray     # (K,)  receiver noise share


def _decompose(gamma, beta, rho):
    """signal, coupling and noise over (..., M, K) gains.

    Row k of the coupling matrix holds, per user k', the beamforming
    uncertainty sum_m gamma[m, k] beta[m, k']; the noise entry scales
    with 1/rho.
    """
    a = gamma.sum(axis=-2)
    coupling = np.einsum("...mk,...mi->...ki", gamma, beta)
    return a ** 2, coupling, a / rho


def sinr_coefficients(ctx: RateContext) -> SinrCoefficients:
    """Decompose the SINR of every user into q-independent coefficients."""
    return SinrCoefficients(*_decompose(ctx.gamma, ctx.beta, ctx.rho))


def sinr_from_coefficients(coeffs: SinrCoefficients, q):
    q = np.asarray(q, dtype=float)
    return q * coeffs.signal / (coeffs.coupling @ q + coeffs.noise)


def _validate_power(q, k):
    q = np.asarray(q, dtype=float)
    if q.shape != (k,):
        raise ValidationError(f"power vector must have shape ({k},)")
    if not np.all(np.isfinite(q)) or q.min() < 0 or q.max() > 1.0 + 1e-12:
        raise ValidationError("power coefficients must lie in [0, 1]")
    return np.clip(q, 0.0, 1.0)


def user_rate(ctx: RateContext, q):
    """Per-user achievable rates in bits/s/Hz for power coefficients q."""
    q = _validate_power(q, ctx.n_users)
    sinr = sinr_from_coefficients(sinr_coefficients(ctx), q)
    return np.log1p(sinr) / LN2


def min_rate(ctx: RateContext, q) -> float:
    """Worst per-user rate, the max-min objective."""
    return float(user_rate(ctx, q).min())


def net_throughput(rate_bits_hz, cfg: SystemConfig):
    """Net throughput in bits/s: bandwidth times the half-duplex payload
    fraction (1 - tau/tau_c)/2 times the spectral efficiency."""
    factor = cfg.bandwidth_hz * (1.0 - cfg.tau / cfg.coherence_samples) / 2.0
    return factor * np.asarray(rate_bits_hz, dtype=float)


@dataclass(frozen=True)
class BatchedCoefficients:
    """SINR pieces for a stack of snapshots; leading axis is the sample."""

    signal: np.ndarray    # (N, K)
    coupling: np.ndarray  # (N, K, K)
    noise: np.ndarray     # (N, K)

    def __len__(self) -> int:
        return self.signal.shape[0]

    def take(self, idx) -> "BatchedCoefficients":
        return BatchedCoefficients(
            self.signal[idx], self.coupling[idx], self.noise[idx]
        )

    def sample(self, i: int) -> SinrCoefficients:
        return SinrCoefficients(self.signal[i], self.coupling[i], self.noise[i])


def batch_sinr_coefficients(beta, cfg: SystemConfig) -> BatchedCoefficients:
    """sinr_coefficients over an (N, M, K) stack in one vectorized pass."""
    beta = _checked_gains(beta, 3)
    gamma = gamma_coefficients(beta, cfg.tau, cfg.rho_p)
    return BatchedCoefficients(*_decompose(gamma, beta, cfg.rho))


def batch_sinr(coeffs: BatchedCoefficients, q):
    """SINR for an (N, K) block of power vectors; trusts q, no validation."""
    q = np.asarray(q, dtype=float)
    denom = np.einsum("nki,ni->nk", coeffs.coupling, q) + coeffs.noise
    return q * coeffs.signal / denom


def batch_rates(coeffs: BatchedCoefficients, q):
    """Per-user rates for an (N, K) block of power vectors."""
    return np.log1p(batch_sinr(coeffs, q)) / LN2
