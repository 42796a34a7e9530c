"""End-to-end acceptance battery.

Every test prints exactly one verdict line (criterion N: PASS/FAIL with the
measured numbers) straight to the real stdout, so the verdicts survive
pytest's capture.  The heavyweight artifacts (datasets, trained models,
solver reports) are built once per module and shared.

Budget: around five minutes single-threaded, dominated by the exact solver
on the 1000-sample test sets and by per-sample fine-tuning.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from cfmimo.checkpoints import Checkpoint, load_checkpoint, save_checkpoint
from cfmimo.config import DataConfig, SystemConfig, TrainConfig, save_config
from cfmimo.datasets import (
    generate_splits,
    generate_static_dataset,
    load_dataset,
    save_dataset,
)
from cfmimo.geometry import generate_realization
from cfmimo.mlp import build_model, fit_normalizer
from cfmimo.rates import (
    LN2,
    batch_rates,
    batch_sinr_coefficients,
    rate_context,
    sinr_coefficients,
    sinr_from_coefficients,
)
from cfmimo.reports import evaluate
from cfmimo.solver import (
    FEASIBLE,
    INFEASIBLE,
    feasibility_fixed_point,
    solve_maxmin_bisection,
)
from cfmimo.training import batch_loss, batch_loss_and_grad, train_model

from grid_search import brute_force_maxmin

SEED = 0
CFG30 = SystemConfig()
CFG50 = SystemConfig(n_aps=50, n_users=10)
CFG_MOB = SystemConfig(grid_shape=(6, 5))
# the second network size only contributes solver quality and timing
# figures, so its model gets a reduced training budget
TCFG50 = TrainConfig(iterations=2000)


@pytest.fixture
def verdict(capsys):
    """One pass/fail line per criterion, printed past pytest's capture."""
    def _verdict(num: int, ok: bool, detail: str):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _verdict


@pytest.fixture(scope="module")
def static30():
    return generate_splits(CFG30, DataConfig(), SEED)


@pytest.fixture(scope="module")
def model30(static30):
    run = train_model(static30["train"].beta, static30["val"].beta,
                      CFG30, TrainConfig())
    return Checkpoint.from_run(run, CFG30, TrainConfig())


@pytest.fixture(scope="module")
def base30(static30):
    return evaluate("baseline", static30["test"], CFG30)


@pytest.fixture(scope="module")
def dnn30(static30, model30):
    return evaluate("dnn", static30["test"], CFG30, checkpoint=model30)


@pytest.fixture(scope="module")
def online30(static30, model30):
    return evaluate("dnn-online", static30["test"], CFG30, checkpoint=model30)


@pytest.fixture(scope="module")
def static50():
    return generate_splits(
        CFG50, DataConfig(train_samples=2000, val_samples=200), SEED)


@pytest.fixture(scope="module")
def base50(static50):
    return evaluate("baseline", static50["test"], CFG50)


@pytest.fixture(scope="module")
def model50(static50):
    run = train_model(static50["train"].beta, static50["val"].beta,
                      CFG50, TCFG50)
    return Checkpoint.from_run(run, CFG50, TCFG50)


@pytest.fixture(scope="module")
def mobility():
    splits = generate_splits(
        CFG_MOB, DataConfig(scenario="mobility", train_samples=10000), SEED)
    started = time.perf_counter()
    run = train_model(splits["train"].beta, splits["val"].beta,
                      CFG_MOB, TrainConfig())
    train_s = time.perf_counter() - started
    return splits, Checkpoint.from_run(run, CFG_MOB, TrainConfig()), train_s


@pytest.fixture(scope="module")
def bench(tmp_path_factory, static30, model30, static50, model50):
    """Timing tables from the CLI, one thread, 100 snapshots per size."""
    root = tmp_path_factory.mktemp("bench")
    tables = {}
    jobs = (("m30", CFG30, TrainConfig(), static30, model30),
            ("m50", CFG50, TCFG50, static50, model50))
    for tag, cfg, tcfg, splits, ck in jobs:
        d = root / tag
        d.mkdir()
        save_dataset(d / "test.cfmm", splits["test"])
        save_checkpoint(d / "model.cfck", ck)
        save_config(d / "config.json", cfg, tcfg)
        proc = subprocess.run(
            [sys.executable, "-m", "cfmimo.cli", "--threads", "1",
             "--config", str(d / "config.json"),
             "--out", str(d / "bench.json"), "bench",
             "--data", str(d), "--checkpoint", str(d / "model.cfck"),
             "--samples", "100"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        tables[tag] = json.loads((d / "bench.json").read_text())
    return tables


def test_criterion_1_solver_reference_averages(verdict, base30, base50):
    a30 = base30.summary()["avg_min_rate"]
    a50 = base50.summary()["avg_min_rate"]
    ok = abs(a30 - 1.02) <= 0.05 and abs(a50 - 0.99) <= 0.05
    verdict(1, ok,
            f"solver avg min-rate over 1000 samples: {a30:.4f} at 30x5 "
            f"(band 1.02+-0.05), {a50:.4f} at 50x10 (band 0.99+-0.05)")


def _rate_jacobian(coeffs, q):
    denom = coeffs.coupling @ q + coeffs.noise
    s = q * coeffs.signal / denom
    base = (coeffs.signal / denom) / (LN2 * (1.0 + s))
    eye = np.eye(len(q))
    return base[:, None] * (eye - (q / denom)[:, None] * coeffs.coupling)


def test_criterion_2_grid_search_agreement(verdict):
    # 50 fixed-seed instances; the exact solver must stay within 2e-3 below
    # the best 200-per-axis grid point and may top it only by the grid's
    # certified discretization allowance plus the bisection bracket width
    rng = np.random.default_rng(20)
    delta = 1.0 / 199.0
    max_excess = -np.inf
    max_deficit = -np.inf
    ok = True
    for _ in range(50):
        m = int(rng.integers(2, 4))
        cfg = SystemConfig(n_aps=m, n_users=2)
        ctx = rate_context(generate_realization(cfg, rng).beta, cfg)
        coeffs = sinr_coefficients(ctx)
        sol = solve_maxmin_bisection(ctx)
        _, brute = brute_force_maxmin(ctx, 200)

        infeas = [t for t, feas in sol.trace if not feas]
        t_hi = min(infeas) if infeas else float(
            np.max(coeffs.signal / coeffs.noise))
        bracket = np.log2(1.0 + t_hi) - np.log2(1.0 + sol.t_star)

        # worst-case drop of the min-rate between the optimum and its
        # nearest grid point, from the local slopes (doubled for curvature)
        q_eval = np.maximum(np.maximum(sol.q_star - delta / 2.0,
                                       sol.q_star * 0.5), 1e-12)
        slope = np.abs(_rate_jacobian(coeffs, q_eval)).sum(axis=1).max()
        allowance = delta * slope + bracket

        excess = sol.rate_star - brute
        max_excess = max(max_excess, excess)
        max_deficit = max(max_deficit, -excess)
        ok = ok and (excess >= -2e-3) and (excess <= allowance)
    verdict(2, ok,
            f"50 instances, M in 2..3, K=2: solver vs grid search within "
            f"[-2e-3, grid allowance]; max above {max_excess:.2e}, "
            f"max below {max_deficit:.2e}")


def test_criterion_3_trained_network_quality(verdict, base30, dnn30):
    b = base30.summary()["avg_min_rate"]
    d = dnn30.summary()["avg_min_rate"]
    ok = d >= 0.80 and d >= 0.80 * b
    verdict(3, ok,
            f"trained 30x5 network: avg test min-rate {d:.4f} "
            f"(need >=0.80) = {d / b:.1%} of solver (need >=80%)")


def test_criterion_4_online_finetuning_quality(verdict, base30, dnn30, online30):
    b = base30.summary()["avg_min_rate"]
    o = online30.summary()["avg_min_rate"]
    below = int((online30.min_rates() < dnn30.min_rates() - 1e-12).sum())
    ok = o >= 0.93 * b and below == 0
    verdict(4, ok,
            f"online fine-tuning at 30x5: avg {o:.4f} = {o / b:.1%} of "
            f"solver (need >=93%), {below} samples below the plain network")


def test_criterion_5_mobility_pipeline(verdict, mobility):
    splits, ck, train_s = mobility
    sizes = tuple(len(splits[name]) for name in ("train", "val", "test"))
    base = evaluate("baseline", splits["test"], CFG_MOB)
    onl = evaluate("dnn-online", splits["test"], CFG_MOB, checkpoint=ck)
    b = base.summary()["avg_min_rate"]
    o = onl.summary()["avg_min_rate"]
    ok = sizes == (10000, 1000, 1000) and train_s < 600.0 and o >= 0.93 * b
    verdict(5, ok,
            f"moving users on the 6x5 grid: {sizes[0]}/{sizes[1]}/{sizes[2]} "
            f"temporal split, offline training {train_s:.0f} s (budget 600), "
            f"online avg {o:.4f} = {o / b:.1%} of solver (need >=93%)")


def test_criterion_6_single_thread_speedups(verdict, bench):
    # the paper claims the network is "around 400 times faster" than its
    # optimiser; asserted here as >=10x over the exact solver at each size.
    # Whether the ratio grows with size depends on the order of the timing
    # loops, so it is not asserted.  The paper's 4-6x for online learning
    # refers to its own optimiser; against this solver 100 fine-tuning
    # steps have measured 1.4-1.7x the solver's speed at 30x5 and 0.9-1.2x
    # at 50x10 (see README), so that ratio is printed, not asserted.
    sizes = (("30x5", bench["m30"]), ("50x10", bench["m50"]))
    ok = all(b["speedup_vs_baseline"]["dnn"] >= 10.0 for _, b in sizes)
    parts = [
        f"{name} solver {b['mean_s']['baseline'] * 1e3:.2f} ms/snapshot, "
        f"network {b['speedup_vs_baseline']['dnn']:.1f}x (need >=10x), "
        f"fine-tuned {b['speedup_vs_baseline']['dnn-online']:.2f}x"
        for name, b in sizes
    ]
    verdict(6, ok,
            "single-thread speedup over the solver: " + "; ".join(parts)
            + " (paper's 4-6x for fine-tuning reported, not asserted)")


def test_criterion_7_gradient_against_finite_differences(verdict):
    rng = np.random.default_rng(7)
    checked = 0
    worst = 0.0
    for inst in range(10):
        ds = generate_static_dataset(CFG30, 4, seed=700 + inst)
        coeffs = batch_sinr_coefficients(ds.beta, CFG30)
        model = build_model(CFG30.n_aps, CFG30.n_users, rng)
        x = fit_normalizer(ds.beta, "linear").transform(ds.beta)

        # skip instances whose worst user is nearly tied: the minimum is
        # not differentiable there and finite differences see the kink
        rates = batch_rates(coeffs, model.forward(x))
        two = np.partition(rates, 1, axis=1)
        if float((two[:, 1] - two[:, 0]).min()) < 1e-4:
            continue

        _, grad = batch_loss_and_grad(model, x, coeffs)
        for i in rng.choice(model.params.size, size=40, replace=False):
            p0 = model.params[i]
            h = 1e-5 * (1.0 + abs(p0))
            model.params[i] = p0 + h
            up = batch_loss(model, x, coeffs)
            model.params[i] = p0 - h
            down = batch_loss(model, x, coeffs)
            model.params[i] = p0
            fd = (up - down) / (2.0 * h)
            scale = max(abs(grad[i]), abs(fd))
            if scale < 1e-8:
                continue
            worst = max(worst, abs(grad[i] - fd) / scale)
            checked += 1
    ok = checked >= 200 and worst < 1e-5
    verdict(7, ok,
            f"loss gradient vs central differences: {checked} parameter "
            f"coordinates, worst relative error {worst:.2e} (need <1e-5)")


def _random_coeffs(rng, m=8, k=3):
    cfg = SystemConfig(n_aps=m, n_users=k)
    ctx = rate_context(generate_realization(cfg, rng).beta, cfg)
    return sinr_coefficients(ctx)


def test_criterion_8_property_battery(verdict, tmp_path):
    rng = np.random.default_rng(8)
    parts = {}

    # SINR moves the right way when one user turns its power up
    ok = True
    for _ in range(10):
        coeffs = _random_coeffs(rng)
        q = rng.uniform(0.05, 0.9, 3)
        before = sinr_from_coefficients(coeffs, q)
        i = int(rng.integers(3))
        bumped = q.copy()
        bumped[i] += 0.05
        after = sinr_from_coefficients(coeffs, bumped)
        others = np.arange(3) != i
        ok = ok and after[i] > before[i] and np.all(
            after[others] <= before[others] + 1e-15)
    parts["sinr-monotone"] = ok

    # power iterates grow monotonically toward the fixed point
    ok = True
    for _ in range(10):
        coeffs = _random_coeffs(rng)
        t = 0.7 * solve_maxmin_bisection(coeffs).t_star
        seen = []
        res = feasibility_fixed_point(t, coeffs, record=seen)
        steps = np.diff(np.stack(seen), axis=0)
        ok = ok and res.status == FEASIBLE and steps.min() >= -1e-14
    parts["fixed-point-monotone"] = ok

    # the returned target is feasible, the bracket above it is not
    ok = True
    for _ in range(10):
        coeffs = _random_coeffs(rng)
        sol = solve_maxmin_bisection(coeffs)
        t_hi = min(t for t, feas in sol.trace if not feas)
        ok = (ok and feasibility_fixed_point(sol.t_star, coeffs).status == FEASIBLE
              and feasibility_fixed_point(t_hi, coeffs).status == INFEASIBLE
              and (t_hi - sol.t_star) / t_hi < 1e-4)
    parts["bracket-feasibility"] = ok

    # no random allocation beats the solver
    ok = True
    for _ in range(5):
        coeffs = _random_coeffs(rng)
        sol = solve_maxmin_bisection(coeffs)
        best = -np.inf
        for q in rng.uniform(0.0, 1.0, (1000, 3)):
            sinr = sinr_from_coefficients(coeffs, q)
            best = max(best, float(np.log1p(sinr.min()) / LN2))
        ok = ok and best <= sol.rate_star * (1.0 + 2e-4) + 1e-12
    parts["random-dominance"] = ok

    # network outputs are valid power coefficients by construction
    model = build_model(8, 3, rng)
    out = model.forward(rng.normal(0.0, 3.0, (50, 24)))
    parts["sigmoid-range"] = (out.shape == (50, 3)
                              and float(out.min()) > 0.0
                              and float(out.max()) < 1.0)

    # identical users: everyone transmits at full power and gets the same
    cfg = SystemConfig(n_aps=8, n_users=3)
    col = generate_realization(cfg, rng).beta[:, :1]
    ctx = rate_context(np.repeat(col, 3, axis=1), cfg)
    sol = solve_maxmin_bisection(ctx)
    coeffs = sinr_coefficients(ctx)
    full = np.log1p(sinr_from_coefficients(coeffs, np.ones(3))) / LN2
    parts["symmetry-full-power"] = (
        float(sol.q_star.min()) > 0.999
        and np.allclose(sol.q_star, sol.q_star[0], rtol=1e-6)
        and np.allclose(full, full[0], rtol=1e-9))

    # artifacts survive the disk unchanged
    ds = generate_static_dataset(SystemConfig(n_aps=4, n_users=2), 6, seed=81)
    save_dataset(tmp_path / "a.cfmm", ds)
    save_dataset(tmp_path / "b.cfmm", load_dataset(tmp_path / "a.cfmm"))
    stable = (tmp_path / "a.cfmm").read_bytes() == (tmp_path / "b.cfmm").read_bytes()
    tiny_cfg = SystemConfig(n_aps=4, n_users=2)
    tiny_tc = TrainConfig(iterations=30, batch_size=16, validation_every=10,
                          seed=2)
    tr = generate_static_dataset(tiny_cfg, 40, seed=82)
    va = generate_static_dataset(tiny_cfg, 10, seed=83)
    run = train_model(tr.beta, va.beta, tiny_cfg, tiny_tc)
    save_checkpoint(tmp_path / "a.cfck",
                    Checkpoint.from_run(run, tiny_cfg, tiny_tc))
    save_checkpoint(tmp_path / "b.cfck", load_checkpoint(tmp_path / "a.cfck"))
    stable = stable and (tmp_path / "a.cfck").read_bytes() == (
        tmp_path / "b.cfck").read_bytes()
    parts["round-trip-bytes"] = stable

    # the whole pipeline lands on identical summary numbers when reseeded
    def tiny_pipeline():
        cfg = SystemConfig(n_aps=6, n_users=2)
        data = DataConfig(train_samples=300, val_samples=60, test_samples=60)
        tc = TrainConfig(iterations=300, validation_every=50, seed=5)
        splits = generate_splits(cfg, data, 17)
        run = train_model(splits["train"].beta, splits["val"].beta, cfg, tc)
        ck = Checkpoint.from_run(run, cfg, tc)
        return (evaluate("dnn", splits["test"], cfg, checkpoint=ck).summary(),
                evaluate("baseline", splits["test"], cfg).summary())

    parts["pipeline-determinism"] = tiny_pipeline() == tiny_pipeline()

    detail = ", ".join(
        f"{name} {'ok' if good else 'FAIL'}" for name, good in parts.items())
    verdict(8, all(parts.values()), detail)
