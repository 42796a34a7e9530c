"""Network geometry and large-scale channel gains.

The service area is a square of side D whose edges wrap around, so every
distance is measured on the torus.  Large-scale gains combine a three-slope
path-loss curve (Hata-COST231 beyond the outer breakpoint) with log-normal
shadowing.  Antenna heights enter the path-loss constant only; distances are
horizontal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SystemConfig
from .errors import ValidationError

# Distances below this are clamped before evaluating the path-loss curve.
MIN_DISTANCE_M = 1.0


def torus_distance(p, q, side):
    """Shortest distance between points on a square torus of the given side.

    Parameters
    ----------
    p, q : array_like, shape (..., 2)
        Cartesian coordinates in [0, side]^2.
    side : float
        Side length of the wrapped square.

    Returns
    -------
    ndarray or float, shape (...)
    """
    delta = np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))
    delta = np.minimum(delta, side - delta)
    return np.sqrt((delta ** 2).sum(axis=-1))


def hata_cost231_constant(cfg: SystemConfig) -> float:
    """Fixed attenuation term of the path-loss curve, in dB.

    Evaluated from the carrier frequency (MHz) and the AP/user antenna
    heights (m); for the default scenario this is about 140.7 dB.
    """
    f_mhz = cfg.carrier_freq_hz / 1e6
    lf = math.log10(f_mhz)
    return (
        46.3
        + 33.9 * lf
        - 13.82 * math.log10(cfg.ap_height_m)
        - (1.1 * lf - 0.7) * cfg.user_height_m
        + (1.56 * lf - 0.8)
    )


def path_loss_db(distance_m, cfg: SystemConfig):
    """Three-slope path loss in dB (negative) at the given distance(s) in meters.

    35 dB/decade beyond d1, 20 dB/decade between d0 and d1, constant below
    d0.  The curve is continuous at both breakpoints.  Distances are clamped
    to 1 m.
    """
    d_km = np.maximum(np.asarray(distance_m, dtype=float), MIN_DISTANCE_M) / 1000.0
    d0_km = cfg.d0_m / 1000.0
    d1_km = cfg.d1_m / 1000.0
    const = hata_cost231_constant(cfg)
    mid = -const - 15.0 * math.log10(d1_km)
    out = np.where(
        d_km > d1_km,
        -const - 35.0 * np.log10(d_km),
        np.where(
            d_km > d0_km,
            mid - 20.0 * np.log10(d_km),
            mid - 20.0 * math.log10(d0_km),
        ),
    )
    if out.ndim == 0:
        return float(out)
    return out


def large_scale_fading(cfg: SystemConfig, ap_positions, user_positions, shadow_draws):
    """Linear large-scale gains beta for every AP/user pair.

    Parameters
    ----------
    ap_positions : (M, 2) array
    user_positions : (K, 2) array
    shadow_draws : (M, K) array
        Standard-normal draws; scaled by the configured shadowing std in dB.

    Returns
    -------
    (M, K) array of positive linear gains.
    """
    ap_positions = np.asarray(ap_positions, dtype=float)
    user_positions = np.asarray(user_positions, dtype=float)
    shadow_draws = np.asarray(shadow_draws, dtype=float)
    m, k = len(ap_positions), len(user_positions)
    if shadow_draws.shape != (m, k):
        raise ValidationError(f"shadow draws must have shape ({m}, {k})")
    dist = torus_distance(
        ap_positions[:, None, :], user_positions[None, :, :], cfg.area_side_m
    )
    gain_db = path_loss_db(dist, cfg) + cfg.shadow_std_db * shadow_draws
    return 10.0 ** (gain_db / 10.0)


@dataclass
class NetworkRealization:
    ap_positions: np.ndarray    # (M, 2)
    user_positions: np.ndarray  # (K, 2)
    beta: np.ndarray            # (M, K) linear gains


def grid_ap_positions(cfg: SystemConfig) -> np.ndarray:
    """Regular AP grid with half-spacing margins; requires cfg.grid_shape."""
    if cfg.grid_shape is None:
        raise ValidationError("grid placement requires grid_shape in the config")
    nx, ny = cfg.grid_shape
    d = cfg.area_side_m
    xs = (np.arange(nx) + 0.5) * d / nx
    ys = (np.arange(ny) + 0.5) * d / ny
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def generate_realization(cfg: SystemConfig, rng) -> NetworkRealization:
    """Draw one network snapshot with uniformly scattered APs and users.

    Draw order from the generator: AP positions, user positions, shadowing.
    Gridded APs for the mobility scenario come from ``grid_ap_positions``.
    """
    d = cfg.area_side_m
    ap = rng.uniform(0.0, d, size=(cfg.n_aps, 2))
    users = rng.uniform(0.0, d, size=(cfg.n_users, 2))
    z = rng.standard_normal((cfg.n_aps, cfg.n_users))
    beta = large_scale_fading(cfg, ap, users, z)
    return NetworkRealization(ap_positions=ap, user_positions=users, beta=beta)


# Per-user motion model: speed and axis-aligned direction are redrawn on a
# fixed schedule; walls reflect the user and flip the direction in between.

SPEED_MAX_MPS = 20.0
REDRAW_PERIOD_S = 5.0

# direction code -> unit step; 0 left, 1 right, 2 up, 3 down
_DIRECTION_STEPS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


@dataclass
class MobilityState:
    user_positions: np.ndarray   # (K, 2)
    speeds_mps: np.ndarray       # (K,)
    directions: np.ndarray       # (K,) int codes into _DIRECTION_STEPS
    time_since_change: float = 0.0


def initial_mobility_state(cfg: SystemConfig, rng) -> MobilityState:
    """Uniform starting positions with freshly drawn speeds and directions."""
    pos = rng.uniform(0.0, cfg.area_side_m, size=(cfg.n_users, 2))
    speeds = rng.uniform(0.0, SPEED_MAX_MPS, size=cfg.n_users)
    dirs = rng.integers(0, 4, size=cfg.n_users)
    return MobilityState(pos, speeds, dirs)


def step_mobility(state: MobilityState, dt: float, cfg: SystemConfig, rng) -> MobilityState:
    """Advance the motion by dt seconds, reflecting at walls.

    Speeds and directions are redrawn once the accumulated time reaches the
    redraw period.  A wall hit reverses the direction code so the user keeps
    moving away from the wall until the next redraw.
    """
    d = cfg.area_side_m
    pos = state.user_positions + _DIRECTION_STEPS[state.directions] * (
        state.speeds_mps * dt
    )[:, None]
    dirs = state.directions.copy()
    # reflect; one bounce suffices because a step is shorter than the side
    for axis in range(2):
        over = pos[:, axis] > d
        under = pos[:, axis] < 0.0
        pos[over, axis] = 2.0 * d - pos[over, axis]
        pos[under, axis] = -pos[under, axis]
        flip = over | under
        dirs[flip] ^= 1  # direction codes come in opposite pairs (0,1) and (2,3)
    elapsed = state.time_since_change + dt
    if elapsed >= REDRAW_PERIOD_S - 1e-9:
        speeds = rng.uniform(0.0, SPEED_MAX_MPS, size=len(pos))
        dirs = rng.integers(0, 4, size=len(pos))
        elapsed = 0.0
    else:
        speeds = state.speeds_mps
    return MobilityState(pos, speeds, dirs, elapsed)
