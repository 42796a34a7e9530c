import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo.config import SystemConfig
from cfmimo.datasets import generate_static_dataset
from cfmimo.errors import ValidationError
from cfmimo.geometry import generate_realization
from cfmimo.rates import (
    RateContext,
    SinrCoefficients,
    gamma_coefficients,
    rate_context,
    sinr_coefficients,
    sinr_from_coefficients,
    user_rate,
)
from cfmimo.solver import (
    BISECTION_REL_TOL,
    FEASIBILITY_REL_SLACK,
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    direct_feasibility,
    feasibility_fixed_point,
    solve_maxmin_bisection,
)

from grid_search import brute_force_maxmin

CFG = SystemConfig()

# single-link coefficients for beta=rho=rho_p=tau=1: the fixed point has the
# closed form q = t*C/(A - t*B), feasible up to t = A/(B+C) = 0.25
UNIT = SinrCoefficients(
    signal=np.array([0.25]),
    coupling=np.array([[0.5]]),
    noise=np.array([0.5]),
)


def random_context(rng, n_aps, n_users):
    beta = 10.0 ** rng.uniform(-2.0, 2.0, (n_aps, n_users))
    return fixed_context(beta)


def fixed_context(beta):
    beta = np.asarray(beta, dtype=float)
    gamma = gamma_coefficients(beta, beta.shape[1], 1.0)
    return RateContext(beta=beta, gamma=gamma, rho=1.0)


# --- feasibility ------------------------------------------------------------

def test_zero_target_always_feasible():
    res = feasibility_fixed_point(0.0, UNIT)
    assert res.status == FEASIBLE
    assert np.allclose(res.q, 0.0)


def test_single_user_fixed_point_closed_form():
    res = feasibility_fixed_point(0.2, UNIT)
    assert res.status == FEASIBLE
    assert res.q[0] == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_single_user_infeasible_above_threshold():
    assert feasibility_fixed_point(0.26, UNIT).status == INFEASIBLE
    assert feasibility_fixed_point(10.0, UNIT).status == INFEASIBLE


def test_single_user_feasible_near_threshold():
    res = feasibility_fixed_point(0.249, UNIT)
    assert res.status == FEASIBLE
    assert res.q[0] == pytest.approx(0.249 * 0.5 / (0.25 - 0.249 * 0.5), rel=1e-6)


def test_direct_route_matches_iteration():
    for t in [0.05, 0.2, 0.249, 0.26, 1.0]:
        it = feasibility_fixed_point(t, UNIT)
        di = direct_feasibility(t, UNIT)
        assert it.status == di.status
        if it.status == FEASIBLE:
            assert np.allclose(it.q, di.q, rtol=1e-8)


def test_iterates_are_monotone():
    seen = []
    feasibility_fixed_point(0.24, UNIT, early_exit=False, record=seen)
    qs = np.array(seen)
    assert np.all(np.diff(qs[:, 0]) >= -1e-16)


def test_undecided_when_iteration_budget_too_small():
    res = feasibility_fixed_point(
        0.2499, UNIT, max_iter=5, early_exit=False, direct_after=None
    )
    assert res.status == UNDECIDED


# --- bisection --------------------------------------------------------------

def test_single_user_optimum_full_power():
    sol = solve_maxmin_bisection(UNIT)
    assert sol.t_star == pytest.approx(0.25, rel=2e-4)
    assert sol.q_star[0] == pytest.approx(1.0, abs=1e-3)
    assert sol.rate_star == pytest.approx(math.log2(1.25), rel=2e-4)


def test_symmetric_network_full_power_equal_rates():
    sym = fixed_context(np.full((3, 4), 2.0))
    sol = solve_maxmin_bisection(sym)
    assert np.allclose(sol.q_star, 1.0, atol=1e-3)
    rates = user_rate(sym, sol.q_star)
    assert np.allclose(rates, rates[0], rtol=1e-9)


def test_minimal_power_equalizes_sinr():
    rng = np.random.default_rng(11)
    ctx = random_context(rng, 4, 3)
    sol = solve_maxmin_bisection(ctx)
    sinr = sinr_from_coefficients(sinr_coefficients(ctx), sol.q_star)
    assert np.allclose(sinr, sol.t_star, rtol=1e-6)


def test_trace_feasibility_monotone_in_target():
    rng = np.random.default_rng(12)
    ctx = random_context(rng, 4, 3)
    sol = solve_maxmin_bisection(ctx)
    feas = [t for t, ok in sol.trace if ok]
    infeas = [t for t, ok in sol.trace if not ok]
    assert feas and infeas
    assert max(feas) < min(infeas)
    assert max(feas) <= sol.t_star <= min(infeas)


def test_solution_dominates_random_allocations():
    rng = np.random.default_rng(13)
    ctx = random_context(rng, 5, 3)
    sol = solve_maxmin_bisection(ctx)
    coeffs = sinr_coefficients(ctx)
    best_random = 0.0
    for _ in range(1000):
        q = rng.uniform(0.0, 1.0, 3)
        worst = sinr_from_coefficients(coeffs, q).min()
        best_random = max(best_random, worst)
    assert best_random <= sol.t_star * (1.0 + 2e-4)


def test_solution_beats_max_power():
    rng = np.random.default_rng(14)
    for _ in range(10):
        net = generate_realization(CFG, rng)
        ctx = rate_context(net.beta, CFG)
        sol = solve_maxmin_bisection(ctx)
        full = sinr_from_coefficients(sinr_coefficients(ctx), np.ones(5))
        assert sol.t_star >= full.min() * (1.0 - 1e-9)


def test_some_user_near_full_power():
    rng = np.random.default_rng(15)
    for _ in range(5):
        net = generate_realization(CFG, rng)
        sol = solve_maxmin_bisection(rate_context(net.beta, CFG))
        assert 0.95 < sol.q_star.max() <= 1.0 + 1e-12


def test_accepts_context_or_coefficients():
    rng = np.random.default_rng(16)
    ctx = random_context(rng, 3, 2)
    a = solve_maxmin_bisection(ctx)
    b = solve_maxmin_bisection(sinr_coefficients(ctx))
    assert a.t_star == b.t_star
    assert np.array_equal(a.q_star, b.q_star)


# --- brute force cross-check ------------------------------------------------

def test_brute_force_single_user():
    ctx = random_context(np.random.default_rng(17), 3, 1)
    q, rate = brute_force_maxmin(ctx, grid_resolution=41)
    assert q[0] == 1.0
    assert rate == pytest.approx(user_rate(ctx, np.ones(1))[0])


def test_brute_force_symmetric_pair():
    sym = fixed_context(np.full((2, 2), 1.0))
    q, _ = brute_force_maxmin(sym, grid_resolution=21)
    assert np.array_equal(q, np.ones(2))


def test_brute_force_rejects_large_problems():
    ctx = random_context(np.random.default_rng(18), 2, 4)
    with pytest.raises(ValidationError):
        brute_force_maxmin(ctx)


def test_bisection_matches_brute_force():
    rng = np.random.default_rng(19)
    for _ in range(5):
        ctx = random_context(rng, 3, 2)
        sol = solve_maxmin_bisection(ctx)
        _, brute = brute_force_maxmin(ctx, grid_resolution=101)
        # bisection stops a hair below the continuous optimum, which an
        # on-grid point can attain exactly, hence the small lower slack
        assert sol.rate_star >= brute - 2e-3
        assert sol.rate_star <= brute + 0.05


# --- properties -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.integers(1, 3),
)
def test_solver_invariants(seed, n_aps, n_users):
    ctx = random_context(np.random.default_rng(seed), n_aps, n_users)
    sol = solve_maxmin_bisection(ctx)
    assert sol.q_star.shape == (n_users,)
    assert np.all(sol.q_star >= 0.0)
    assert np.all(sol.q_star <= 1.0 + 1e-12)
    assert sol.t_star > 0.0
    assert sol.rate_star == pytest.approx(math.log2(1.0 + sol.t_star))
    sinr = sinr_from_coefficients(sinr_coefficients(ctx), sol.q_star)
    assert sinr.min() >= sol.t_star * (1.0 - 1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_accelerated_and_plain_routes_agree(seed):
    ctx = random_context(np.random.default_rng(seed), 3, 3)
    coeffs = sinr_coefficients(ctx)
    t_star = solve_maxmin_bisection(ctx).t_star
    for frac in [0.3, 0.7, 0.95, 1.05, 1.5]:
        fast = feasibility_fixed_point(frac * t_star, coeffs)
        plain = feasibility_fixed_point(
            frac * t_star, coeffs, early_exit=False, direct_after=None
        )
        assert fast.status == plain.status == (FEASIBLE if frac < 1 else INFEASIBLE)


def perron_target(coeffs):
    """Exact max-min SINR under the per-user cap q <= 1 (Zheng et al., IEEE
    TIT 2016): 1 / max_j rho(D^-1 C + D^-1 n e_j^T), D = diag(signal)."""
    k = len(coeffs.signal)
    b = coeffs.coupling / coeffs.signal[:, None]
    n = coeffs.noise / coeffs.signal
    # stack[j, r, c] = b[r, c] + n[r] * (c == j)
    stack = b[None] + n[None, :, None] * np.eye(k)[:, None, :]
    return 1.0 / np.abs(np.linalg.eigvals(stack)).max()


def test_perron_oracle_single_user_closed_form():
    assert perron_target(UNIT) == pytest.approx(0.25, rel=1e-14)


@settings(max_examples=45, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 5, 10]), st.booleans())
def test_bisection_brackets_perron_oracle(seed, n_users, scenario):
    rng = np.random.default_rng(seed)
    if scenario:
        n_aps = {2: 10, 5: 30, 10: 50}[n_users]  # the paper's sizes
        cfg = SystemConfig(n_aps=n_aps, n_users=n_users)
        beta = generate_static_dataset(cfg, 1, seed=seed).beta[0]
        ctx = rate_context(beta, cfg)
    else:
        ctx = random_context(rng, int(rng.integers(1, 4 * n_users + 1)), n_users)
    coeffs = sinr_coefficients(ctx)
    t_star = solve_maxmin_bisection(coeffs).t_star
    t_perron = perron_target(coeffs)
    # the solver accepts a target met to within FEASIBILITY_REL_SLACK
    assert t_star <= t_perron * (1.0 + FEASIBILITY_REL_SLACK)
    assert t_perron <= t_star / (1.0 - BISECTION_REL_TOL)
