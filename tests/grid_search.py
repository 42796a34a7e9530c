"""Exhaustive grid search for max-min power control, a test oracle."""

import numpy as np

from cfmimo.errors import ValidationError
from cfmimo.rates import LN2, RateContext, sinr_coefficients


def brute_force_maxmin(ctx: RateContext, grid_resolution: int = 200):
    """Exhaustive max-min search over a uniform power grid; small K only.

    Returns (q, min_rate) for the best grid point.  Grid values include both
    endpoints, so full power is always a candidate.
    """
    k = ctx.n_users
    if k > 3:
        raise ValidationError("grid search is limited to K <= 3")
    if grid_resolution < 2:
        raise ValidationError("need at least 2 grid points per axis")
    coeffs = sinr_coefficients(ctx)
    axis = np.linspace(0.0, 1.0, grid_resolution)
    mesh = np.meshgrid(*([axis] * k), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)  # (G, K)
    sinr = grid * coeffs.signal / (grid @ coeffs.coupling.T + coeffs.noise)
    worst = np.log1p(sinr).min(axis=1) / LN2
    best = int(worst.argmax())
    return grid[best].copy(), float(worst[best])
