"""Closed-form uplink rates under matched-filter combining.

Everything here is a deterministic function of the large-scale gains beta,
the pilot assignment, and the normalized transmit SNRs; no small-scale
channel draws are needed.  The per-user SINR factors into

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


@dataclass(frozen=True)
class PilotSet:
    """Pilot assignment summarized by squared inner products.

    gram_sq[k, k'] = |<pilot_k, pilot_k'>|^2, symmetric with unit diagonal.
    """

    gram_sq: np.ndarray
    tau: int

    def __post_init__(self):
        g = np.asarray(self.gram_sq, dtype=float)
        object.__setattr__(self, "gram_sq", g)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValidationError("pilot gram must be square")
        if not np.allclose(g, g.T):
            raise ValidationError("pilot gram must be symmetric")
        if not np.allclose(np.diag(g), 1.0):
            raise ValidationError("pilot gram diagonal must be 1")
        if g.min() < -1e-12 or g.max() > 1.0 + 1e-12:
            raise ValidationError("pilot gram entries must lie in [0, 1]")
        if self.tau < 1:
            raise ValidationError("pilot length must be at least 1")

    @classmethod
    def orthogonal(cls, n_users: int, tau: int | None = None) -> "PilotSet":
        tau = n_users if tau is None else tau
        if tau < n_users:
            raise ValidationError("orthogonal pilots need length >= number of users")
        return cls(np.eye(n_users), tau)


def c_coefficients(beta, pilots: PilotSet, rho_p: float):
    """MMSE estimation coefficients c for each AP/user pair.

    c[m, k] = sqrt(tau rho_p) beta[m, k] /
              (tau rho_p * sum_k' beta[m, k'] gram_sq[k, k'] + 1)
    """
    beta = np.asarray(beta, dtype=float)
    trp = pilots.tau * rho_p
    denom = trp * (beta @ pilots.gram_sq) + 1.0
    return math.sqrt(trp) * beta / denom


def gamma_coefficients(beta, pilots: PilotSet, rho_p: float):
    """Mean-square channel-estimate gains gamma = sqrt(tau rho_p) beta c."""
    beta = np.asarray(beta, dtype=float)
    return math.sqrt(pilots.tau * rho_p) * beta * c_coefficients(beta, pilots, rho_p)


@dataclass
class RateContext:
    """One network snapshot prepared for rate evaluation."""

    beta: np.ndarray    # (M, K)
    gamma: np.ndarray   # (M, K)
    c: np.ndarray       # (M, K)
    rho: float
    pilots: PilotSet

    @property
    def n_users(self) -> int:
        return self.beta.shape[1]


def _checked_gains(beta, ndim: int, cfg: SystemConfig, pilots: PilotSet | None):
    """Validate an (M, K) or, with ndim=3, (N, M, K) gain array; default
    the pilots to an orthogonal set of length cfg.tau."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != ndim:
        raise ValidationError(
            "beta must have shape " + ("(N, M, K)" if ndim == 3 else "(M, K)"))
    if not np.all(np.isfinite(beta)) or beta.min() <= 0:
        raise ValidationError("beta entries must be finite and positive")
    k = beta.shape[-1]
    if pilots is None:
        pilots = PilotSet.orthogonal(k, cfg.tau)
    elif pilots.gram_sq.shape[0] != k:
        raise ValidationError("pilot set size does not match number of users")
    return beta, pilots


def rate_context(beta, cfg: SystemConfig, pilots: PilotSet | None = None) -> RateContext:
    """Build a RateContext from gains and a scenario config.

    Pilots default to an orthogonal set of length cfg.tau.
    """
    beta, pilots = _checked_gains(beta, 2, cfg, pilots)
    c = c_coefficients(beta, pilots, cfg.rho_p)
    gamma = math.sqrt(pilots.tau * cfg.rho_p) * beta * c
    return RateContext(beta=beta, gamma=gamma, c=c, rho=cfg.rho, pilots=pilots)


@dataclass
class SinrCoefficients:
    """Network-dependent SINR pieces: sinr = q*signal / (coupling@q + noise)."""

    signal: np.ndarray    # (K,)  coherent beamforming gain
    coupling: np.ndarray  # (K, K) pilot contamination + beamforming uncertainty
    noise: np.ndarray     # (K,)  receiver noise share


def _decompose(gamma, beta, gram_sq, rho):
    """signal, coupling and noise over (..., M, K) gains.

    The coupling matrix row k collects, per interfering user k', the
    coherent pilot-contamination term (off-diagonal only) plus the
    beamforming-uncertainty term; the noise entry scales with 1/rho.
    """
    a = gamma.sum(axis=-2)
    contamination = np.einsum("...mk,...mi->...ki", gamma / beta, beta) ** 2
    contamination *= gram_sq
    diag = np.arange(gamma.shape[-1])
    contamination[..., diag, diag] = 0.0
    uncertainty = np.einsum("...mk,...mi->...ki", gamma, beta)
    return a ** 2, contamination + uncertainty, a / rho


def sinr_coefficients(ctx: RateContext) -> SinrCoefficients:
    """Decompose the SINR of every user into q-independent coefficients."""
    return SinrCoefficients(
        *_decompose(ctx.gamma, ctx.beta, ctx.pilots.gram_sq, ctx.rho))


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


def batch_sinr_coefficients(
    beta, cfg: SystemConfig, pilots: PilotSet | None = None
) -> BatchedCoefficients:
    """sinr_coefficients over an (N, M, K) stack in one vectorized pass."""
    beta, pilots = _checked_gains(beta, 3, cfg, pilots)
    gamma = gamma_coefficients(beta, pilots, cfg.rho_p)
    return BatchedCoefficients(
        *_decompose(gamma, beta, pilots.gram_sq, cfg.rho))


def batch_sinr(coeffs: BatchedCoefficients, q):
    """SINR for an (N, K) block of power vectors; trusts q, no validation."""
    q = np.asarray(q, dtype=float)
    denom = np.einsum("nki,ni->nk", coeffs.coupling, q) + coeffs.noise
    return q * coeffs.signal / denom


def batch_rates(coeffs: BatchedCoefficients, q):
    """Per-user rates for an (N, K) block of power vectors."""
    return np.log1p(batch_sinr(coeffs, q)) / LN2
