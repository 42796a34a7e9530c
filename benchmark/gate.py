"""Correctness gate: every decision and artifact the benchmark produces is
checked here, and every problem found counts as a failed operation.

The checks need only the SINR coefficients of a snapshot and the solver's
certified lower bracket t_star.  Bisection stops once the bracket is
narrower than BISECTION_REL_TOL, so the optimum lies below the upper
bracket t_star / (1 - BISECTION_REL_TOL) and no allocation may beat it.
"""

from __future__ import annotations

import numpy as np

from cfmimo.solver import BISECTION_REL_TOL

# Rounding slack on SINR comparisons between separately computed values.
REL_SLACK = 1e-9


def min_sinr(coeffs, i, q):
    """Worst-user SINR of power vector q on snapshot i of a coefficient stack."""
    q = np.asarray(q, dtype=float)
    sinr = q * coeffs.signal[i] / (coeffs.coupling[i] @ q + coeffs.noise[i])
    return float(sinr.min())


def check_allocation(q, n_users) -> list[str]:
    q = np.asarray(q)
    if q.shape != (n_users,):
        return [f"q has shape {q.shape}, expected ({n_users},)"]
    if not np.all(np.isfinite(q)):
        return ["q is not finite"]
    if q.min() < 0.0 or q.max() > 1.0:
        return ["q leaves [0, 1]"]
    return []


def check_decision(method, q, coeffs, i, t_star) -> list[str]:
    """Problems with one method's allocation for snapshot i.

    The baseline must reach its own t_star; no method may exceed the upper
    bracket.
    """
    problems = check_allocation(q, coeffs.signal.shape[1])
    if problems:
        return [f"{method}: {p}" for p in problems]
    got = min_sinr(coeffs, i, q)
    if method == "baseline" and got < t_star * (1.0 - REL_SLACK):
        problems.append(f"baseline misses its own t_star: {got!r} < {t_star!r}")
    upper = t_star / (1.0 - BISECTION_REL_TOL)
    if got > upper * (1.0 + REL_SLACK):
        problems.append(f"{method}: SINR {got!r} above the upper bracket {upper!r}")
    return problems


def check_online_not_worse(q_online, q_dnn, coeffs, i) -> list[str]:
    """dnn-online keeps the untouched network's q as a candidate."""
    online, dnn = min_sinr(coeffs, i, q_online), min_sinr(coeffs, i, q_dnn)
    if online < dnn * (1.0 - REL_SLACK):
        return [f"dnn-online worse than dnn: {online!r} < {dnn!r}"]
    return []


class Ledger:
    """Attempted and failed operation counts with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")

    def run(self, what, fn, *args, **kwargs):
        """Call fn; an exception is a failed operation and returns None."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any raised error is a failed decision
            self.record(what, [f"{type(exc).__name__}: {exc}"])
            return None

    @property
    def failed_frac(self) -> float:
        return self.failed / max(self.attempted, 1)
