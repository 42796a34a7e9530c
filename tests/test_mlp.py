import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo.config import SystemConfig, TrainConfig
from cfmimo.errors import ValidationError
from cfmimo.geometry import generate_realization
from cfmimo.mlp import (
    ADAM_BLOCK,
    AdamState,
    Mlp,
    Normalizer,
    adam_step,
    build_model,
    elu,
    elu_grad,
    fit_normalizer,
    layer_sizes,
    parameter_count,
    sigmoid,
)
from cfmimo.rates import batch_rates, batch_sinr_coefficients
from cfmimo.training import (
    LOSS_CHUNK,
    batch_loss,
    batch_loss_and_grad,
    online_finetune,
    train_model,
)

SMALL = SystemConfig(n_aps=4, n_users=2)


def beta_stack(cfg, n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([generate_realization(cfg, rng).beta for _ in range(n)])


# --- activations ------------------------------------------------------------

def test_elu_values():
    assert elu(np.array([0.0]))[0] == 0.0
    assert elu(np.array([2.5]))[0] == 2.5
    assert elu(np.array([-1.0]))[0] == pytest.approx(math.expm1(-1.0))


def test_sigmoid_values():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([3.0]))[0] == pytest.approx(1.0 / (1.0 + math.exp(-3.0)))


def test_activations_extreme_inputs_stay_finite():
    z = np.array([-1e4, -50.0, 50.0, 1e4])
    with np.errstate(over="raise"):
        e = elu(z)
        s = sigmoid(z)
    assert np.all(np.isfinite(e))
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert s[0] == 0.0 and s[-1] == 1.0


@settings(max_examples=50)
@given(st.floats(-30, 30), st.floats(-30, 30))
def test_activation_monotonicity(a, b):
    lo, hi = sorted([a, b])
    assert elu(np.array([lo]))[0] <= elu(np.array([hi]))[0]
    assert sigmoid(np.array([lo]))[0] <= sigmoid(np.array([hi]))[0]


# The two-branch forms the closed forms replace, kept as references.
def elu_reference(z):
    return np.where(z > 0.0, z, np.expm1(np.minimum(z, 0.0)))


def elu_grad_reference(z, out):
    return np.where(z > 0.0, 1.0, out + 1.0)


def sigmoid_reference(z):
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def assert_bitwise_like_references(z):
    # NaN in gives NaN out either way, but its sign and payload may differ
    nan = np.isnan(z)
    got = elu(z), sigmoid(z), elu_grad(elu(z))
    want = (elu_reference(z), sigmoid_reference(z),
            elu_grad_reference(z, elu_reference(z)))
    for g, w in zip(got, want):
        assert np.array_equal(g[~nan].view(np.int64), w[~nan].view(np.int64))
        assert np.all(np.isnan(g[nan]))


def test_activations_bitwise_equal_references_at_edges():
    tiny = np.finfo(float).smallest_subnormal
    edges = np.array([0.0, tiny, 1e3 * tiny, np.finfo(float).tiny / 2,
                      np.finfo(float).tiny, 1e-300, 1e-17, 0.5, 1.0, 36.7, 37.0,
                      709.0, 709.8, 745.0, 745.2, 1e4, np.finfo(float).max,
                      np.inf, np.nan])
    z = np.concatenate([edges, -edges])
    assert np.signbit(z[len(edges)])  # -0.0 is among them
    bits = np.random.default_rng(0).integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=200_000,
        dtype=np.int64)
    with np.errstate(all="ignore"):
        assert_bitwise_like_references(z)
        assert_bitwise_like_references(bits.view(np.float64))


@settings(max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=8))
def test_activations_bitwise_equal_references(values):
    with np.errstate(all="ignore"):
        assert_bitwise_like_references(np.array(values, dtype=float))


# --- architecture -----------------------------------------------------------

def test_layer_sizes_shape():
    assert layer_sizes(30, 5) == [150, 150, 5, 30, 5]
    assert layer_sizes(50, 10) == [500, 500, 10, 50, 10]


def test_parameter_count_frozen():
    assert parameter_count(layer_sizes(30, 5)) == 23_740
    assert parameter_count(layer_sizes(50, 10)) == 256_570


def test_flat_params_alias_layer_views():
    model = build_model(3, 2, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=6)
    before = model.forward(x).copy()
    model.params += 0.05
    after = model.forward(x)
    assert not np.allclose(before, after)


def test_init_glorot_bounds_and_zero_biases():
    model = build_model(30, 5, np.random.default_rng(7))
    for w in model.weights:
        fo, fi = w.shape
        lim = math.sqrt(6.0 / (fi + fo))
        assert np.abs(w).max() <= lim
        assert np.abs(w).max() > 0.5 * lim
    for b in model.biases:
        assert np.all(b == 0.0)


def test_init_deterministic_in_seed():
    a = build_model(4, 2, np.random.default_rng(3))
    b = build_model(4, 2, np.random.default_rng(3))
    c = build_model(4, 2, np.random.default_rng(4))
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)


def test_output_range_and_shapes():
    model = build_model(4, 2, np.random.default_rng(5))
    xb = np.random.default_rng(6).normal(size=(7, 8))
    qb = model.forward(xb)
    assert qb.shape == (7, 2)
    assert np.all(qb > 0.0) and np.all(qb < 1.0)
    q1 = model.forward(xb[0])
    assert q1.shape == (2,)
    assert np.allclose(q1, qb[0])


@pytest.mark.parametrize("n_aps,n_users", [(30, 5), (50, 10)])
def test_forward_is_forward_cached_bit_for_bit(n_aps, n_users):
    model = build_model(n_aps, n_users, np.random.default_rng(15))
    model.params += np.random.default_rng(16).normal(0.0, 0.05, model.params.size)
    xb = np.random.default_rng(17).normal(size=(6, n_aps * n_users))
    q, acts = model.forward_cached(xb)
    assert len(acts) == model.n_layers + 1 and acts[-1] is q
    assert np.array_equal(model.forward(xb), q)
    for x in xb:
        single = model.forward(x)
        assert single.shape == (n_users,)
        assert np.array_equal(single.view(np.int64),
                              model.forward_cached(x[None])[0][0].view(np.int64))


def test_param_vector_length_checked():
    with pytest.raises(ValidationError):
        Mlp([4, 3], np.zeros(10))


# --- normalizer -------------------------------------------------------------

def test_normalizer_standardizes_log_features():
    stack = beta_stack(SMALL, 64, 0)
    norm = fit_normalizer(stack, "log")
    x = norm.transform(stack)
    assert x.shape == (64, 8)
    assert np.allclose(x.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(x.std(axis=0), 1.0, atol=1e-9)


def test_normalizer_linear_mode():
    stack = beta_stack(SMALL, 16, 1)
    norm = fit_normalizer(stack, "linear")
    x = norm.transform(stack)
    assert np.allclose(x.mean(axis=0), 0.0, atol=1e-9)


def test_normalizer_constant_feature_floor():
    stack = np.full((10, 2, 2), 3.0)
    norm = fit_normalizer(stack, "linear")
    assert np.all(norm.std == 1e-12)
    assert np.allclose(norm.transform(stack), 0.0)


def test_normalizer_single_sample_shape():
    stack = beta_stack(SMALL, 8, 2)
    norm = fit_normalizer(stack, "log")
    assert norm.transform(stack[0]).shape == (8,)


@pytest.mark.parametrize("shape", [(0, 4, 2), (3, 0, 2), (4, 2)])
def test_normalizer_rejects_empty_or_flat_stacks(shape):
    with pytest.raises(ValidationError, match="non-empty"):
        fit_normalizer(np.ones(shape))


def test_normalizer_rejects_unknown_mode():
    with pytest.raises(ValidationError):
        Normalizer("cube", np.zeros(2), np.ones(2))


# --- loss gradient ----------------------------------------------------------

def test_loss_matches_loss_and_grad():
    stack = beta_stack(SMALL, 12, 3)
    co = batch_sinr_coefficients(stack, SMALL)
    norm = fit_normalizer(stack, "log")
    model = build_model(4, 2, np.random.default_rng(8))
    x = norm.transform(stack)
    loss, _ = batch_loss_and_grad(model, x, co)
    assert loss == pytest.approx(batch_loss(model, x, co), rel=1e-14)


@pytest.mark.parametrize("n_aps,n_users", [(30, 5), (50, 10)])
def test_chunked_loss_equals_one_pass(n_aps, n_users):
    # past one chunk a row of q can differ in the last bit from the same row
    # of one pass, because a BLAS product may round a row differently at
    # another row count; the mean of the worst rates absorbed that for all
    # 20 random models at 257, 1,000, 2,000 and 5,000 rows at both sizes
    cfg = SystemConfig(n_aps=n_aps, n_users=n_users)
    stack = beta_stack(cfg, 1000, 5)
    x = fit_normalizer(stack).transform(stack)
    co = batch_sinr_coefficients(stack, cfg)
    model = build_model(n_aps, n_users, np.random.default_rng(6))
    for n in (1, LOSS_CHUNK, LOSS_CHUNK + 1, 1000):
        part = co.take(slice(0, n))
        one_pass = -batch_rates(part, model.forward_cached(x[:n])[0]).min(axis=1).mean()
        assert np.array_equal(batch_loss(model, x[:n], part), one_pass), n


def test_gradient_matches_finite_differences():
    stack = beta_stack(SMALL, 6, 4)
    co = batch_sinr_coefficients(stack, SMALL)
    norm = fit_normalizer(stack, "log")
    model = build_model(4, 2, np.random.default_rng(9))
    x = norm.transform(stack)
    _, grad = batch_loss_and_grad(model, x, co)

    rng = np.random.default_rng(10)
    coords = rng.choice(model.params.size, size=60, replace=False)
    h = 1e-6
    for i in coords:
        keep = model.params[i]
        model.params[i] = keep + h
        up = batch_loss(model, x, co)
        model.params[i] = keep - h
        down = batch_loss(model, x, co)
        model.params[i] = keep
        fd = (up - down) / (2.0 * h)
        scale = max(abs(fd), abs(grad[i]), 1e-8)
        assert abs(fd - grad[i]) / scale < 1e-5, f"coordinate {i}"


def test_gradient_pushes_loss_down():
    stack = beta_stack(SMALL, 32, 5)
    co = batch_sinr_coefficients(stack, SMALL)
    norm = fit_normalizer(stack, "log")
    model = build_model(4, 2, np.random.default_rng(11))
    x = norm.transform(stack)
    loss0, grad = batch_loss_and_grad(model, x, co)
    model.params -= 1e-3 * grad / max(np.abs(grad).max(), 1e-12)
    assert batch_loss(model, x, co) < loss0


# --- adam -------------------------------------------------------------------

def test_adam_first_step_is_signed_lr():
    params = np.zeros(4)
    grad = np.array([0.3, -2.0, 1e-12, 5.0])
    adam_step(params, grad, AdamState.zeros(4), lr=0.01)
    assert params[0] == pytest.approx(-0.01, rel=1e-6)
    assert params[1] == pytest.approx(0.01, rel=1e-6)
    assert params[3] == pytest.approx(-0.01, rel=1e-6)
    # tiny gradients are damped by eps instead of amplified
    assert abs(params[2]) < 0.01


def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0])
    adam_step(params, np.zeros(2), AdamState.zeros(2), lr=0.01)
    assert np.array_equal(params, np.array([1.0, -2.0]))


def test_adam_state_accumulates():
    params = np.zeros(1)
    state = AdamState.zeros(1)
    for _ in range(3):
        adam_step(params, np.array([1.0]), state, lr=0.1)
    assert state.step == 3
    assert params[0] == pytest.approx(-0.3, rel=1e-4)


def adam_reference(params, grad, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook update, one expression per line, with temporaries."""
    state.step += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1 ** state.step)
    v_hat = state.v / (1.0 - beta2 ** state.step)
    params -= lr * m_hat / (np.sqrt(v_hat) + eps)


def assert_adam_matches_textbook_form(n, steps):
    rng = np.random.default_rng(12)
    params = rng.normal(size=n)
    expected = params.copy()
    state, ref_state = AdamState.zeros(n), AdamState.zeros(n)
    for _ in range(steps):
        grad = rng.normal(size=n) * rng.uniform(0.0, 3.0)
        grad[:5] = 0.0
        adam_step(params, grad, state, lr=0.01)
        adam_reference(expected, grad, ref_state, lr=0.01)
        assert np.array_equal(state.m, ref_state.m)
        assert np.array_equal(state.v, ref_state.v)
        assert np.array_equal(params, expected)


def test_adam_bit_identical_to_textbook_form():
    # enough steps that the bias corrections move through many values
    assert_adam_matches_textbook_form(300, 60)


@pytest.mark.parametrize("n", [ADAM_BLOCK, 3 * ADAM_BLOCK + 1234],
                         ids=["one-block", "blocks-and-remainder"])
def test_blocked_adam_bit_identical_to_textbook_form(n):
    assert_adam_matches_textbook_form(n, 50)


@pytest.mark.parametrize("n", [1, 300, ADAM_BLOCK, 3 * ADAM_BLOCK + 1234])
def test_adam_scratch_is_at_most_one_block(n):
    assert all(a.shape == (min(n, ADAM_BLOCK),)
               for a in AdamState.zeros(n).scratch)


def test_backward_out_matches_fresh_gradient():
    stack = beta_stack(SMALL, 9, 13)
    co = batch_sinr_coefficients(stack, SMALL)
    model = build_model(4, 2, np.random.default_rng(14))
    x = fit_normalizer(stack, "log").transform(stack)
    _, fresh = batch_loss_and_grad(model, x, co)
    buf = np.full_like(model.params, np.nan)
    _, grad = batch_loss_and_grad(model, x, co, out=buf)
    assert grad is buf
    assert np.array_equal(buf, fresh)


# --- training loop ----------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run():
    train = beta_stack(SMALL, 80, 20)
    val = beta_stack(SMALL, 20, 21)
    tcfg = TrainConfig(iterations=150, batch_size=20, validation_every=50, seed=1)
    return train, val, tcfg, train_model(train, val, SMALL, tcfg)


def test_training_improves_validation(tiny_run):
    _, _, _, run = tiny_run
    first_val = run.history[0][2]
    assert run.best_val_loss < first_val


def test_training_history_grid(tiny_run):
    _, _, tcfg, run = tiny_run
    iters = [h[0] for h in run.history]
    assert iters == [0, 50, 100, 150]
    assert all(np.isfinite(h[1]) and np.isfinite(h[2]) for h in run.history)


def test_training_keeps_best_validation_params(tiny_run):
    train, val, _, run = tiny_run
    co_val = batch_sinr_coefficients(val, SMALL)
    x_val = run.normalizer.transform(val)
    assert batch_loss(run.model, x_val, co_val) == pytest.approx(
        run.best_val_loss, rel=1e-12
    )


def test_training_deterministic(tiny_run):
    train, val, tcfg, run = tiny_run
    again = train_model(train, val, SMALL, tcfg)
    assert np.array_equal(run.model.params, again.model.params)
    assert run.history == again.history


def test_training_seed_changes_outcome(tiny_run):
    train, val, tcfg, run = tiny_run
    other = train_model(train, val, SMALL, TrainConfig(
        iterations=150, batch_size=20, validation_every=50, seed=2))
    assert not np.array_equal(run.model.params, other.model.params)


def test_iterations_do_not_perturb_init(tiny_run):
    # same seed, different iteration budget: identical starting weights,
    # hence identical first history entry
    train, val, tcfg, run = tiny_run
    short = train_model(train, val, SMALL, TrainConfig(
        iterations=50, batch_size=20, validation_every=50, seed=1))
    assert short.history[0] == run.history[0]


def traced_training_peak(cfg, n):
    train = beta_stack(cfg, n, 23)
    val = beta_stack(cfg, 100, 24)
    tcfg = TrainConfig(iterations=5, batch_size=100, validation_every=5)
    tracemalloc.start()
    try:
        train_model(train, val, cfg, tcfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_aps,n_users", [(30, 5), (50, 10)])
def test_training_memory_grows_by_at_most_two_snapshots_per_snapshot(n_aps, n_users):
    # train_model holds one normalised copy of the training set and its
    # coefficients (K/M + 2/M snapshot sizes); every other buffer is sized
    # by the model, a batch or a fixed chunk.  Before chunking the slope
    # was about 4.2 snapshot sizes.
    cfg = SystemConfig(n_aps=n_aps, n_users=n_users)
    small, large = (traced_training_peak(cfg, n) for n in (1000, 3000))
    slope = (large - small) / 2000 / (n_aps * n_users * 8)
    assert slope <= 2.0, slope


def test_training_rejects_oversized_batch():
    train = beta_stack(SMALL, 10, 22)
    with pytest.raises(ValidationError):
        train_model(train, train, SMALL, TrainConfig(iterations=1, batch_size=64))


# --- online finetuning ------------------------------------------------------

def test_finetune_never_worse_than_direct_output(tiny_run):
    train, val, _, run = tiny_run
    co = batch_sinr_coefficients(val, SMALL)
    for i in range(5):
        x = run.normalizer.transform(val[i])
        base = batch_rates(co.take([i]), run.model.forward(x)[None, :]).min()
        q = online_finetune(run.model, x, co.take([i]), steps=30)
        tuned = batch_rates(co.take([i]), q[None, :]).min()
        assert tuned >= base


def test_finetune_leaves_model_untouched(tiny_run):
    train, val, _, run = tiny_run
    co = batch_sinr_coefficients(val, SMALL)
    x = run.normalizer.transform(val[0])
    before = run.model.params.copy()
    online_finetune(run.model, x, co.take([0]), steps=10)
    assert np.array_equal(run.model.params, before)


def test_finetune_improves_on_average(tiny_run):
    train, val, _, run = tiny_run
    co = batch_sinr_coefficients(val, SMALL)
    gains = []
    for i in range(10):
        x = run.normalizer.transform(val[i])
        base = batch_rates(co.take([i]), run.model.forward(x)[None, :]).min()
        q = online_finetune(run.model, x, co.take([i]), steps=50)
        gains.append(batch_rates(co.take([i]), q[None, :]).min() - base)
    assert np.mean(gains) > 0.0


def finetune_reference(model, x, coeffs, steps, lr=0.01):
    """Frozen first layer: a1 from the trained net's forward pass, textbook
    Adam on a copy of the layers above it, and a separate forward pass to
    rank each candidate."""
    tcfg = TrainConfig()
    a1 = model.forward_cached(x[None, :])[1][1]
    upper = Mlp(model.sizes[1:], np.concatenate(
        [np.append(w.ravel(), b) for w, b in zip(model.weights[1:], model.biases[1:])]))
    opt = AdamState.zeros(upper.params.size)
    best_q = model.forward(x)
    best_rate = batch_rates(coeffs, best_q[None, :]).min()
    for _ in range(steps):
        _, grad = batch_loss_and_grad(upper, a1, coeffs)
        adam_reference(upper.params, grad, opt, lr,
                       tcfg.adam_beta1, tcfg.adam_beta2, tcfg.adam_eps)
        q = upper.forward(a1[0])
        rate = batch_rates(coeffs, q[None, :]).min()
        if rate > best_rate:
            best_rate = rate
            best_q = q
    return best_q


def assert_finetune_matches_reference(model, xs, coeffs, step_counts):
    moved = 0
    for i, x in enumerate(xs):
        plain = model.forward(x)
        for steps in step_counts:
            q = online_finetune(model, x, coeffs.take([i]), steps=steps)
            ref = finetune_reference(model, x, coeffs.take([i]), steps)
            assert np.array_equal(q, ref), (i, steps)
            moved += not np.array_equal(ref, plain)
    assert moved > 0


def test_finetune_matches_reference(tiny_run):
    train, val, _, run = tiny_run
    co = batch_sinr_coefficients(val, SMALL)
    assert_finetune_matches_reference(run.model, run.normalizer.transform(val),
                                      co, (0, 1, 10, 30))


@pytest.mark.parametrize("n_aps,n_users", [(30, 5), (50, 10)])
def test_finetune_matches_reference_at_paper_sizes(n_aps, n_users):
    cfg = SystemConfig(n_aps=n_aps, n_users=n_users)
    beta = beta_stack(cfg, 23, 30)
    model = build_model(n_aps, n_users, np.random.default_rng(31))
    norm = fit_normalizer(beta[:20])
    co = batch_sinr_coefficients(beta[20:], cfg)
    assert_finetune_matches_reference(model, norm.transform(beta[20:]), co,
                                      (0, 1, 10, 30))


def test_finetune_rejects_single_layer_network():
    cfg = SystemConfig(n_aps=2, n_users=3)
    beta = beta_stack(cfg, 1, 41)
    with pytest.raises(ValidationError):
        online_finetune(Mlp([6, 3]), beta[0].reshape(-1),
                        batch_sinr_coefficients(beta, cfg))


@pytest.mark.parametrize("bad", ["row", "short", "long", "stack", "empty"])
def test_finetune_rejects_wrong_shapes(tiny_run, bad):
    # one input (sizes[0],) and the coefficients of that one snapshot
    train, val, _, run = tiny_run
    co = batch_sinr_coefficients(val, SMALL)
    x = run.normalizer.transform(val[0])
    x, coeffs = {
        "row": (x[None, :], co.take([0])),
        "short": (x[:-1], co.take([0])),
        "long": (np.append(x, 0.0), co.take([0])),
        "stack": (x, co.take(np.arange(8))),
        "empty": (x, co.take([])),
    }[bad]
    with pytest.raises(ValidationError):
        online_finetune(run.model, x, coeffs, steps=3)


@pytest.mark.parametrize("lr", [math.nan, -0.01, 0.0, math.inf])
def test_finetune_rejects_bad_step_size(tiny_run, lr):
    train, val, _, run = tiny_run
    co = batch_sinr_coefficients(val, SMALL)
    with pytest.raises(ValidationError):
        online_finetune(run.model, run.normalizer.transform(val[0]), co.take([0]),
                        lr=lr)


def test_finetune_zero_steps_is_the_plain_network(tiny_run):
    train, val, _, run = tiny_run
    co = batch_sinr_coefficients(val, SMALL)
    x = run.normalizer.transform(val[0])
    q = online_finetune(run.model, x, co.take([0]), steps=0)
    assert np.array_equal(q, run.model.forward(x))


def test_finetune_rejects_negative_steps(tiny_run):
    train, val, _, run = tiny_run
    co = batch_sinr_coefficients(val, SMALL)
    with pytest.raises(ValidationError):
        online_finetune(run.model, run.normalizer.transform(val[0]), co.take([0]),
                        steps=-1)
