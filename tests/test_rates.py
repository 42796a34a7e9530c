import math

import numpy as np
import pytest

from cfmimo.config import SystemConfig
from cfmimo.datasets import generate_static_dataset
from cfmimo.errors import ValidationError
from cfmimo.geometry import generate_realization
from cfmimo.rates import (
    PilotSet,
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


def unit_context(beta, rho=1.0, rho_p=1.0, tau=None, gram_sq=None):
    """Hand-built context with freely chosen normalized SNRs."""
    from cfmimo.rates import RateContext

    beta = np.asarray(beta, dtype=float)
    k = beta.shape[1]
    if gram_sq is None:
        pilots = PilotSet.orthogonal(k, tau or k)
    else:
        pilots = PilotSet(np.asarray(gram_sq, dtype=float), tau or k)
    c = c_coefficients(beta, pilots, rho_p)
    gamma = math.sqrt(pilots.tau * rho_p) * beta * c
    return RateContext(beta=beta, gamma=gamma, c=c, rho=rho, pilots=pilots)


# --- pilots -----------------------------------------------------------------

def test_orthogonal_pilots_identity_gram():
    p = PilotSet.orthogonal(5)
    assert p.tau == 5
    assert np.array_equal(p.gram_sq, np.eye(5))


def test_pilot_set_validation():
    with pytest.raises(ValidationError):
        PilotSet(np.array([[1.0, 0.5], [0.4, 1.0]]), 2)  # asymmetric
    with pytest.raises(ValidationError):
        PilotSet(np.array([[1.0, 1.5], [1.5, 1.0]]), 2)  # entry > 1
    with pytest.raises(ValidationError):
        PilotSet(np.array([[0.9, 0.0], [0.0, 0.9]]), 2)  # diagonal != 1
    with pytest.raises(ValidationError):
        PilotSet.orthogonal(5, tau=4)  # too short to be orthogonal


# --- estimation coefficients ------------------------------------------------

def test_c_unit_example():
    # tau rho_p beta = 1 with orthogonal pilots: c = 1*1/(1+1) = 0.5
    p = PilotSet.orthogonal(1)
    c = c_coefficients(np.array([[1.0]]), p, 1.0)
    assert c[0, 0] == pytest.approx(0.5, rel=1e-15)


def test_gamma_unit_example():
    p = PilotSet.orthogonal(1)
    g = gamma_coefficients(np.array([[1.0]]), p, 1.0)
    assert g[0, 0] == pytest.approx(0.5, rel=1e-15)


def test_gamma_high_snr_approaches_beta():
    p = PilotSet.orthogonal(1)
    g = gamma_coefficients(np.array([[1.0]]), p, 1e6)
    assert g[0, 0] == pytest.approx(1e6 / (1e6 + 1), rel=1e-12)


def test_gamma_vanishes_with_beta():
    p = PilotSet.orthogonal(1)
    g = gamma_coefficients(np.array([[1e-30]]), p, 1.0)
    assert g[0, 0] == pytest.approx(0.0, abs=1e-40)


def test_pilot_sharing_reduces_quality():
    beta = np.array([[1.0, 0.8]])
    clean = gamma_coefficients(beta, PilotSet.orthogonal(2), 1.0)
    shared = gamma_coefficients(beta, PilotSet(np.ones((2, 2)), 2), 1.0)
    assert np.all(shared < clean)


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
    # with identity gram the off-diagonal coupling reduces to the
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


def test_contamination_appears_with_shared_pilots():
    beta = np.array([[1.0, 0.9], [0.4, 0.7]])
    shared = unit_context(beta, gram_sq=np.ones((2, 2)))
    clean = unit_context(beta)
    q = np.array([1.0, 1.0])
    assert min_rate(shared, q) < min_rate(clean, q)


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
