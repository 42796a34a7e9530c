import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo.config import SystemConfig
from cfmimo.errors import ValidationError
from cfmimo.geometry import (
    MobilityState,
    generate_realization,
    grid_ap_positions,
    hata_cost231_constant,
    initial_mobility_state,
    large_scale_fading,
    path_loss_db,
    step_mobility,
    torus_distance,
)

CFG = SystemConfig()


# --- torus metric -----------------------------------------------------------

def test_torus_distance_examples():
    assert torus_distance([0.0, 0.0], [0.0, 0.0], 1000.0) == 0.0
    # wrap-around along x: 990 apart directly, 10 across the seam
    assert torus_distance([0.0, 0.0], [990.0, 0.0], 1000.0) == pytest.approx(10.0)
    # 300/400/500 triangle
    assert torus_distance([100.0, 100.0], [400.0, 500.0], 1000.0) == pytest.approx(500.0)


coords = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


@given(coords, coords, coords, coords)
def test_torus_distance_symmetry_and_bound(ax, ay, bx, by):
    d1 = torus_distance([ax, ay], [bx, by], 1000.0)
    d2 = torus_distance([bx, by], [ax, ay], 1000.0)
    assert d1 == pytest.approx(d2)
    # farthest pair on the torus sits half a side away in both axes
    assert d1 <= 1000.0 / math.sqrt(2.0) + 1e-9


@given(coords, coords)
def test_torus_distance_shift_invariance(ax, bx):
    shift = 333.3
    d0 = torus_distance([ax, 0.0], [bx, 0.0], 1000.0)
    d1 = torus_distance(
        [(ax + shift) % 1000.0, 0.0], [(bx + shift) % 1000.0, 0.0], 1000.0
    )
    assert d0 == pytest.approx(d1, abs=1e-6)


# --- path loss --------------------------------------------------------------

def test_hata_constant_value():
    # independent evaluation of the fixed-attenuation expression at
    # f=1900 MHz, h_AP=15 m, h_u=1.65 m
    assert hata_cost231_constant(CFG) == pytest.approx(140.71508370390842, abs=1e-9)
    assert abs(hata_cost231_constant(CFG) - 140.72) < 0.05


def test_path_loss_outer_slope():
    # 35 dB/decade beyond d1: doubling the distance costs 35*log10(2)
    drop = path_loss_db(2000.0, CFG) - path_loss_db(1000.0, CFG)
    assert drop == pytest.approx(-35.0 * math.log10(2.0), abs=1e-9)


def test_path_loss_middle_slope():
    drop = path_loss_db(40.0, CFG) - path_loss_db(20.0, CFG)
    assert drop == pytest.approx(-20.0 * math.log10(2.0), abs=1e-9)


def test_path_loss_constant_inside_d0():
    assert path_loss_db(3.0, CFG) == path_loss_db(9.0, CFG)
    # and the sub-meter clamp
    assert path_loss_db(0.0, CFG) == path_loss_db(1.0, CFG)


def test_path_loss_continuous_at_breakpoints():
    for d in (CFG.d0_m, CFG.d1_m):
        below = path_loss_db(d * (1 - 1e-9), CFG)
        above = path_loss_db(d * (1 + 1e-9), CFG)
        assert below == pytest.approx(above, abs=1e-6)


def test_path_loss_at_1km_equals_negative_constant():
    assert path_loss_db(1000.0, CFG) == pytest.approx(-hata_cost231_constant(CFG))


@given(st.floats(min_value=0.0, max_value=2000.0), st.floats(min_value=0.0, max_value=2000.0))
def test_path_loss_monotone(d_small, d_large):
    if d_small > d_large:
        d_small, d_large = d_large, d_small
    assert path_loss_db(d_small, CFG) >= path_loss_db(d_large, CFG) - 1e-12


# --- shadowing and gains ----------------------------------------------------

def test_large_scale_fading_no_shadowing_matches_path_loss():
    ap = np.array([[0.0, 0.0]])
    user = np.array([[300.0, 400.0]])
    beta = large_scale_fading(CFG, ap, user, np.zeros((1, 1)))
    assert beta[0, 0] == pytest.approx(10 ** (path_loss_db(500.0, CFG) / 10.0), rel=1e-12)


def test_large_scale_fading_one_sigma_shadowing():
    ap = np.array([[0.0, 0.0]])
    user = np.array([[300.0, 400.0]])
    base = large_scale_fading(CFG, ap, user, np.zeros((1, 1)))[0, 0]
    up = large_scale_fading(CFG, ap, user, np.ones((1, 1)))[0, 0]
    # one standard normal draw at sigma_sh = 8 dB scales by 10^0.8
    assert up / base == pytest.approx(10 ** 0.8, rel=1e-12)


def test_large_scale_fading_equidistant_users_equal_gain():
    ap = np.array([[500.0, 500.0]])
    users = np.array([[500.0, 100.0], [100.0, 500.0], [500.0, 900.0], [900.0, 500.0]])
    beta = large_scale_fading(CFG, ap, users, np.zeros((1, 4)))
    assert np.allclose(beta, beta[0, 0])


def test_large_scale_fading_shape_check():
    with pytest.raises(ValidationError):
        large_scale_fading(CFG, np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 2)))


# --- realizations -----------------------------------------------------------

def test_generate_realization_deterministic():
    a = generate_realization(CFG, np.random.default_rng(42))
    b = generate_realization(CFG, np.random.default_rng(42))
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.ap_positions, b.ap_positions)
    c = generate_realization(CFG, np.random.default_rng(43))
    assert not np.array_equal(a.beta, c.beta)


def test_generate_realization_shapes_and_bounds():
    net = generate_realization(CFG, np.random.default_rng(0))
    assert net.beta.shape == (30, 5)
    assert net.beta.min() > 0
    assert net.ap_positions.min() >= 0 and net.ap_positions.max() <= 1000.0


def test_grid_positions_30_aps():
    cfg = SystemConfig(grid_shape=(6, 5))
    pos = grid_ap_positions(cfg)
    assert pos.shape == (30, 2)
    xs = np.unique(pos[:, 0])
    ys = np.unique(pos[:, 1])
    assert len(xs) == 6 and len(ys) == 5
    assert np.allclose(np.diff(xs), 1000.0 / 6.0)
    assert np.allclose(np.diff(ys), 1000.0 / 5.0)
    # half-spacing margin to the area edge
    assert xs[0] == pytest.approx(1000.0 / 12.0)
    assert ys[0] == pytest.approx(1000.0 / 10.0)


def test_grid_requires_configured_shape():
    with pytest.raises(ValidationError):
        grid_ap_positions(CFG)


def test_uniform_placement_mean_position():
    # law of large numbers over many snapshots: mean user x near the center
    n = 100_000
    acc = 0.0
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(i,)))
        acc += generate_realization(CFG, rng).user_positions[:, 0].mean()
    assert abs(acc / n - 500.0) < 5.0


# --- mobility ---------------------------------------------------------------

def test_step_mobility_zero_speed_stays_put():
    state = MobilityState(
        user_positions=np.array([[100.0, 200.0]]),
        speeds_mps=np.array([0.0]),
        directions=np.array([1]),
    )
    out = step_mobility(state, 1.0, CFG, np.random.default_rng(0))
    assert np.allclose(out.user_positions, [[100.0, 200.0]])


def test_step_mobility_straight_line():
    state = MobilityState(
        user_positions=np.array([[100.0, 200.0]]),
        speeds_mps=np.array([10.0]),
        directions=np.array([1]),  # +x
    )
    out = step_mobility(state, 1.0, CFG, np.random.default_rng(0))
    assert np.allclose(out.user_positions, [[110.0, 200.0]])
    assert out.directions[0] == 1


def test_step_mobility_wall_reflection():
    state = MobilityState(
        user_positions=np.array([[999.0, 200.0]]),
        speeds_mps=np.array([10.0]),
        directions=np.array([1]),  # heading right into the wall
    )
    out = step_mobility(state, 1.0, CFG, np.random.default_rng(0))
    assert out.user_positions[0, 0] == pytest.approx(991.0)
    assert out.directions[0] == 0  # reversed to leftbound
    assert 0.0 <= out.user_positions[0, 0] <= 1000.0


def test_step_mobility_redraw_schedule():
    rng = np.random.default_rng(5)
    state = initial_mobility_state(CFG, rng)
    first_speeds = state.speeds_mps.copy()
    for _ in range(4):
        state = step_mobility(state, 1.0, CFG, rng)
        assert np.array_equal(state.speeds_mps, first_speeds)
    state = step_mobility(state, 1.0, CFG, rng)  # fifth second: redraw
    assert state.time_since_change == 0.0
    assert not np.array_equal(state.speeds_mps, first_speeds)


def test_mobility_long_run_contained_and_speeds_uniform():
    from scipy import stats

    rng = np.random.default_rng(17)
    state = initial_mobility_state(CFG, rng)
    speeds = [state.speeds_mps.copy()]
    for _ in range(12_000):
        state = step_mobility(state, 1.0, CFG, rng)
        assert state.user_positions.min() >= 0.0
        assert state.user_positions.max() <= CFG.area_side_m
        if state.time_since_change == 0.0:
            speeds.append(state.speeds_mps.copy())
    pooled = np.concatenate(speeds)
    assert pooled.min() >= 0.0 and pooled.max() <= 20.0
    stat = stats.kstest(pooled / 20.0, "uniform")
    assert stat.pvalue > 1e-4
