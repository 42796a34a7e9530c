import math

import numpy as np
import pytest

from cfmimo.config import SystemConfig
from cfmimo.datasets import generate_static_dataset
from cfmimo.errors import ValidationError
from cfmimo.geometry import generate_realization
from cfmimo.rates import (
    COEFF_CHUNK,
    RateContext,
    batch_sinr_coefficients,
    c_coefficients,
    gamma_coefficients,
    min_rate,
    net_throughput,
    rate_context,
    sinr_coefficients,
    sinr_from_coefficients,
    user_rate,
)

CFG = SystemConfig()


def unit_context(beta):
    """Hand-built context at rho = rho_p = 1 with pilots of length K."""
    beta = np.asarray(beta, dtype=float)
    gamma = gamma_coefficients(beta, beta.shape[1], 1.0)
    return RateContext(beta=beta, gamma=gamma, rho=1.0)


def closed_form_coefficients(beta, tau, rho_p, rho):
    """Loop-by-loop transcription of the orthogonal-pilot closed form:
    gamma_mk = tau rho_p beta_mk^2 / (tau rho_p beta_mk + 1), and per user
    k signal (sum_m gamma_mk)^2, coupling sum_m gamma_mk beta_mk' and noise
    sum_m gamma_mk / rho."""
    m, k = beta.shape
    gamma = [[tau * rho_p * beta[i, j] ** 2 / (tau * rho_p * beta[i, j] + 1.0)
              for j in range(k)] for i in range(m)]
    signal, coupling, noise = np.empty(k), np.empty((k, k)), np.empty(k)
    for u in range(k):
        a = math.fsum(gamma[i][u] for i in range(m))
        signal[u] = a * a
        noise[u] = a / rho
        for v in range(k):
            coupling[u, v] = math.fsum(gamma[i][u] * beta[i, v] for i in range(m))
    return signal, coupling, noise


# --- estimation coefficients ------------------------------------------------

def test_c_unit_example():
    # tau rho_p beta = 1 with orthogonal pilots: c = 1*1/(1+1) = 0.5
    c = c_coefficients(np.array([[1.0]]), 1, 1.0)
    assert c[0, 0] == pytest.approx(0.5, rel=1e-15)


def test_gamma_unit_example():
    g = gamma_coefficients(np.array([[1.0]]), 1, 1.0)
    assert g[0, 0] == pytest.approx(0.5, rel=1e-15)


def test_gamma_high_snr_approaches_beta():
    g = gamma_coefficients(np.array([[1.0]]), 1, 1e6)
    assert g[0, 0] == pytest.approx(1e6 / (1e6 + 1), rel=1e-12)


def test_gamma_vanishes_with_beta():
    g = gamma_coefficients(np.array([[1e-30]]), 1, 1.0)
    assert g[0, 0] == pytest.approx(0.0, abs=1e-40)


def test_gamma_below_beta_everywhere():
    rng = np.random.default_rng(3)
    for _ in range(20):
        net = generate_realization(CFG, rng)
        ctx = rate_context(net.beta, CFG)
        assert np.all(ctx.gamma > 0)
        assert np.all(ctx.gamma < ctx.beta)


# --- rates ------------------------------------------------------------------

def test_single_link_rate_hand_value():
    # M=K=1, beta=rho=rho_p=tau=1, q=1: gamma=0.5, sinr=0.25/(0.5+0.5)
    ctx = unit_context([[1.0]])
    r = user_rate(ctx, np.array([1.0]))
    assert r[0] == pytest.approx(math.log2(1.25), rel=1e-12)


def test_zero_power_zero_rate():
    ctx = unit_context([[1.0, 2.0], [0.5, 1.0]])
    assert np.allclose(user_rate(ctx, np.zeros(2)), 0.0)


def test_symmetric_network_equal_rates():
    ctx = unit_context(np.full((3, 4), 2.0))
    r = user_rate(ctx, np.full(4, 0.7))
    assert np.allclose(r, r[0])


def test_rate_monotone_in_own_power():
    rng = np.random.default_rng(8)
    net = generate_realization(CFG, rng)
    ctx = rate_context(net.beta, CFG)
    q = rng.uniform(0.1, 0.9, 5)
    base = user_rate(ctx, q)
    for k in range(5):
        up = q.copy()
        up[k] = min(1.0, up[k] + 0.05)
        bumped = user_rate(ctx, up)
        assert bumped[k] > base[k]
        others = np.delete(bumped - base, k)
        assert np.all(others <= 1e-15)


def test_power_validation():
    ctx = unit_context([[1.0]])
    with pytest.raises(ValidationError):
        user_rate(ctx, np.array([1.2]))
    with pytest.raises(ValidationError):
        user_rate(ctx, np.array([-0.1]))
    with pytest.raises(ValidationError):
        user_rate(ctx, np.array([0.5, 0.5]))


def test_min_rate_is_min():
    ctx = unit_context([[1.0, 0.2]])
    q = np.array([1.0, 1.0])
    assert min_rate(ctx, q) == pytest.approx(user_rate(ctx, q).min())


def test_ap_relabeling_invariance():
    rng = np.random.default_rng(4)
    net = generate_realization(CFG, rng)
    q = rng.uniform(0.0, 1.0, 5)
    r1 = user_rate(rate_context(net.beta, CFG), q)
    perm = rng.permutation(30)
    r2 = user_rate(rate_context(net.beta[perm], CFG), q)
    assert np.allclose(r1, r2, rtol=1e-12)


# --- coefficient decomposition ---------------------------------------------

def test_coefficients_hand_example():
    # M=K=1 example above: signal=gamma^2=0.25, coupling=gamma*beta=0.5,
    # noise=gamma/rho=0.5
    ctx = unit_context([[1.0]])
    co = sinr_coefficients(ctx)
    assert co.signal[0] == pytest.approx(0.25, rel=1e-15)
    assert co.coupling[0, 0] == pytest.approx(0.5, rel=1e-15)
    assert co.noise[0] == pytest.approx(0.5, rel=1e-15)


def test_orthogonal_pilots_no_contamination_term():
    rng = np.random.default_rng(5)
    net = generate_realization(CFG, rng)
    ctx = rate_context(net.beta, CFG)
    co = sinr_coefficients(ctx)
    # with orthogonal pilots the off-diagonal coupling is the
    # beamforming-uncertainty sum alone
    expected = ctx.gamma.T @ ctx.beta
    off = ~np.eye(5, dtype=bool)
    assert np.allclose(co.coupling[off], expected[off], rtol=1e-14)


def test_coefficients_match_user_rate():
    rng = np.random.default_rng(6)
    for _ in range(10):
        net = generate_realization(CFG, rng)
        ctx = rate_context(net.beta, CFG)
        q = rng.uniform(0.0, 1.0, 5)
        sinr = sinr_from_coefficients(sinr_coefficients(ctx), q)
        direct = 2.0 ** user_rate(ctx, q) - 1.0
        assert np.allclose(sinr, direct, rtol=1e-12)


@pytest.mark.parametrize("cfg", [
    SystemConfig(),
    SystemConfig(n_aps=50, n_users=10),
    SystemConfig(pilot_length=12),  # pilots longer than the user count
    SystemConfig(n_aps=8, n_users=3, pilot_length=20),
], ids=["30x5", "50x10", "30x5-tau12", "8x3-tau20"])
def test_coefficients_match_closed_form(cfg):
    beta = generate_static_dataset(cfg, 6, seed=21).beta
    # the closed form also holds off the scenario's gain range
    rng = np.random.default_rng(21)
    beta = np.concatenate([beta, 10.0 ** rng.uniform(-3.0, 1.0, beta.shape)])
    batched = batch_sinr_coefficients(beta, cfg)
    for i in range(len(beta)):
        want = closed_form_coefficients(beta[i], cfg.tau, cfg.rho_p, cfg.rho)
        for got in (sinr_coefficients(rate_context(beta[i], cfg)),
                    batched.sample(i)):
            for name, ref in zip(("signal", "coupling", "noise"), want):
                np.testing.assert_allclose(getattr(got, name), ref,
                                           rtol=1e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("n_aps,n_users", [(30, 5), (50, 10)])
def test_single_and_batched_coefficients_bit_identical(n_aps, n_users):
    # one kernel: a snapshot's coefficients do not depend on the route
    cfg = SystemConfig(n_aps=n_aps, n_users=n_users)
    beta = generate_static_dataset(cfg, 20, seed=3).beta
    batched = batch_sinr_coefficients(beta, cfg)
    for i in range(len(beta)):
        single = sinr_coefficients(rate_context(beta[i], cfg))
        stacked = batched.sample(i)
        assert np.array_equal(single.signal, stacked.signal)
        assert np.array_equal(single.coupling, stacked.coupling)
        assert np.array_equal(single.noise, stacked.noise)


@pytest.mark.parametrize("n_aps,n_users", [(30, 5), (50, 10)])
def test_chunked_coefficients_equal_per_snapshot(n_aps, n_users):
    cfg = SystemConfig(n_aps=n_aps, n_users=n_users)
    beta = generate_static_dataset(cfg, COEFF_CHUNK + 1, seed=4).beta
    single = [sinr_coefficients(rate_context(b, cfg)) for b in beta]
    for n in (1, COEFF_CHUNK - 1, COEFF_CHUNK, COEFF_CHUNK + 1):
        batched = batch_sinr_coefficients(beta[:n], cfg)
        assert len(batched) == n
        for name in ("signal", "coupling", "noise"):
            assert np.array_equal(getattr(batched, name),
                                  [getattr(s, name) for s in single[:n]]), (n, name)


@pytest.mark.parametrize("shape", [(0, 30, 5), (2, 0, 5), (2, 30, 0)])
def test_batched_coefficients_reject_empty_stacks(shape):
    with pytest.raises(ValidationError, match="non-empty"):
        batch_sinr_coefficients(np.ones(shape), CFG)


# --- net throughput ---------------------------------------------------------

def test_net_throughput_default_overhead():
    # 20 MHz, tau=5 of 200 samples, half-duplex: factor 9.75e6
    assert net_throughput(1.0221, CFG) == pytest.approx(9_965_475.0, rel=1e-12)


def test_net_throughput_longer_pilots():
    cfg = SystemConfig(n_aps=50, n_users=10)
    assert net_throughput(1.0, cfg) == pytest.approx(20e6 * 0.95 / 2.0, rel=1e-12)


def test_rate_context_validation():
    with pytest.raises(ValidationError):
        rate_context(np.array([[0.0]]), CFG)
    with pytest.raises(ValidationError):
        rate_context(np.array([1.0]), CFG)
    with pytest.raises(ValidationError, match="non-empty"):
        rate_context(np.ones((0, 5)), CFG)
