"""Exact max-min power control via bisection on the common SINR target.

Feasibility of a target t is decided with the monotone interference map

    q <- min(1, (t / signal) * (coupling @ q + noise))

iterated from q = 0.  The iterates increase componentwise, so they either
converge to the minimal power vector meeting the target or run into the
power cap.  Two facts make the decision cheap and exact:

* the map only ever clamps when the target is infeasible, so the first
  clamp event is an infeasibility certificate;
* once consecutive updates contract, delta_new <= lam * delta_old with
  lam < 1 componentwise, the limit is bounded by q + delta_new * lam /
  (1 - lam) (the map is affine and monotone, so the contraction factor
  persists), and if that bound stays below 1 the target is feasible.

When neither certificate fires within a sane number of iterations (the
contraction factor can approach 1 on strongly coupled instances), the same
decision is obtained directly: the unconstrained minimal fixed point solves
a K x K linear system, it is nonnegative exactly when the interference
spectral radius is below one, and the target is feasible exactly when that
solution also respects the unit power cap.  The pure iteration (no early
exits, "undecided" on cap) remains available and is what the property
tests exercise; the accelerated path must agree with it everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .rates import (LN2, RateContext, SinrCoefficients, sinr_coefficients,
                    sinr_from_coefficients)

# Relative width at which the bisection bracket is considered resolved.
BISECTION_REL_TOL = 1e-4
# Slack when checking the achieved SINR against the target.
FEASIBILITY_REL_SLACK = 1e-9
# Fixed-point termination: largest componentwise update.
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 100_000
# Accelerated path: switch to the direct linear classification after this
# many iterations without a decision.
DIRECT_FALLBACK_AFTER = 20_000

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"


@dataclass
class FeasibilityResult:
    status: str
    q: np.ndarray | None
    iterations: int


@dataclass
class MaxMinSolution:
    q_star: np.ndarray
    t_star: float
    rate_star: float              # bits/s/Hz, the worst rate q_star achieves
    bisection_iterations: int
    trace: list = field(default_factory=list)  # (t, feasible?) per bisection probe


def _achieves_target(q, t, coeffs, slack):
    return bool(np.all(sinr_from_coefficients(coeffs, q) >= t * (1.0 - slack)))


def direct_feasibility(t, coeffs: SinrCoefficients, slack=FEASIBILITY_REL_SLACK):
    """Classify target t by solving for the unconstrained minimal fixed point.

    Solves (I - (t/signal) coupling) q = (t/signal) noise.  A nonnegative
    solution certifies that the interference spectral radius is below one
    (multiply the system by the Perron left eigenvector); the target is then
    feasible exactly when the solution also stays within the unit cap.
    """
    k = len(coeffs.signal)
    scale = t / coeffs.signal
    mat = np.eye(k) - scale[:, None] * coeffs.coupling
    rhs = scale * coeffs.noise
    try:
        q = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        return FeasibilityResult(INFEASIBLE, None, 0)
    if not np.all(np.isfinite(q)) or q.min() < -1e-12 or q.max() > 1.0 + 1e-12:
        return FeasibilityResult(INFEASIBLE, None, 0)
    q = np.clip(q, 0.0, 1.0)
    if _achieves_target(q, t, coeffs, slack):
        return FeasibilityResult(FEASIBLE, q, 0)
    return FeasibilityResult(INFEASIBLE, None, 0)


def feasibility_fixed_point(
    t: float,
    coeffs: SinrCoefficients,
    *,
    tol: float = FIXED_POINT_TOL,
    max_iter: int = FIXED_POINT_MAX_ITER,
    slack: float = FEASIBILITY_REL_SLACK,
    early_exit: bool = True,
    direct_after: int | None = DIRECT_FALLBACK_AFTER,
    record=None,
) -> FeasibilityResult:
    """Decide whether SINR target t is reachable with powers in [0, 1].

    Returns the minimal feasible power vector when the target is reachable.
    With early_exit=False and direct_after=None this is the plain monotone
    iteration, which reports UNDECIDED when the iteration cap is hit before
    the update drops below tol; callers must treat that as a failure, not
    as infeasible.  ``record``, if given, receives every iterate (testing
    hook).
    """
    if t < 0:
        raise ValidationError("SINR target must be non-negative")
    k = len(coeffs.signal)
    if t == 0.0:
        return FeasibilityResult(FEASIBLE, np.zeros(k), 0)
    scale = t / coeffs.signal
    q = np.zeros(k)
    delta_prev = None
    for it in range(1, max_iter + 1):
        raw = scale * (coeffs.coupling @ q + coeffs.noise)
        if early_exit and raw.max() > 1.0:
            # the monotone limit would clamp here as well: infeasible
            return FeasibilityResult(INFEASIBLE, None, it)
        q_next = np.minimum(1.0, raw)
        if record is not None:
            record.append(q_next.copy())
        delta = q_next - q
        if delta.min() < -1e-14:
            raise SolverError("fixed-point iterates lost monotonicity")
        dmax = delta.max()
        q = q_next
        if dmax < tol:
            if _achieves_target(q, t, coeffs, slack):
                return FeasibilityResult(FEASIBLE, q, it)
            return FeasibilityResult(INFEASIBLE, None, it)
        if early_exit and delta_prev is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = float(np.max(np.where(delta_prev > 0.0, delta / delta_prev, np.inf)))
            if lam < 1.0 - 1e-9:
                bound = q + delta * (lam / (1.0 - lam))
                if bound.max() <= 1.0:
                    # limit certified below the cap: feasible; fetch the
                    # exact fixed point from the linear system
                    direct = direct_feasibility(t, coeffs, slack)
                    if direct.status == FEASIBLE:
                        return FeasibilityResult(FEASIBLE, direct.q, it)
                    # numerical disagreement: distrust the shortcut and
                    # keep iterating
        delta_prev = delta
        if direct_after is not None and it >= direct_after:
            direct = direct_feasibility(t, coeffs, slack)
            return FeasibilityResult(direct.status, direct.q, it)
    return FeasibilityResult(UNDECIDED, None, max_iter)


def solve_maxmin_bisection(ctx_or_coeffs) -> MaxMinSolution:
    """Maximize the minimum per-user SINR over power coefficients in [0, 1].

    Accepts a RateContext or a precomputed SinrCoefficients.  The upper
    bracket max_k signal_k/noise_k ignores interference and is therefore
    strictly infeasible; the lower bracket 0 is trivially feasible.
    A probe is accepted within the feasibility slack, so rate_star is the
    worst rate q_star achieves, which can sit just below log2(1 + t_star).
    """
    if isinstance(ctx_or_coeffs, RateContext):
        coeffs = sinr_coefficients(ctx_or_coeffs)
    else:
        coeffs = ctx_or_coeffs
    t_lo, q_lo = 0.0, np.zeros(len(coeffs.signal))
    t_hi = float(np.max(coeffs.signal / coeffs.noise))
    trace = []
    iterations = 0
    while (t_hi - t_lo) / t_hi >= BISECTION_REL_TOL:
        t_mid = 0.5 * (t_lo + t_hi)
        res = feasibility_fixed_point(t_mid, coeffs)
        if res.status == UNDECIDED:
            raise SolverError(
                f"feasibility undecided at t={t_mid:.6g} after {res.iterations} "
                f"iterations; trace so far: {trace}"
            )
        feasible = res.status == FEASIBLE
        trace.append((t_mid, feasible))
        if feasible:
            t_lo, q_lo = t_mid, res.q
        else:
            t_hi = t_mid
        iterations += 1
    rates = np.log1p(sinr_from_coefficients(coeffs, q_lo)) / LN2
    return MaxMinSolution(
        q_star=q_lo,
        t_star=t_lo,
        rate_star=float(rates.min()),
        bisection_iterations=iterations,
        trace=trace,
    )
