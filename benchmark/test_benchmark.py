"""Tests of the benchmark itself: its gate, its exact counts, its tracer."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import workloads  # noqa: E402
from cfmimo import solver  # noqa: E402
from cfmimo.config import SystemConfig  # noqa: E402
from cfmimo.datasets import generate_static_dataset  # noqa: E402
from cfmimo.errors import SolverError  # noqa: E402
from cfmimo.rates import batch_sinr_coefficients  # noqa: E402
from spans import Tracer  # noqa: E402


def traced_counts(workload, seed, work):
    spec = workloads.WORKLOADS[workload]
    runner = (workloads.run_offline if workload.startswith("offline")
              else workloads.run_decide)
    ledger = gate.Ledger()
    metrics = runner(spec, seed, 0.5, work, True, ledger)[0]
    assert ledger.failed == 0, ledger.problems
    return {name: metrics[name] for name in workloads.EXACT_COUNTS}


@pytest.mark.parametrize("workload", ["decide-30x5", "offline-30x5"])
def test_counts_repeat_exactly_at_a_seed(workload, tmp_path):
    first = traced_counts(workload, 0, tmp_path / "a")
    assert first == traced_counts(workload, 0, tmp_path / "b")
    other = traced_counts(workload, 1, tmp_path / "c")
    for counts in (first, other):
        assert counts["solver.probes_per_solve_p50"] > 0
        assert counts["mlp.adam_calls"] > 0
        assert counts["training.iterations"] == workloads.WORKLOADS[workload].train_iterations
        assert counts["datasets.bytes"] > 0 and counts["checkpoints.bytes"] > 0


@pytest.fixture(scope="module")
def snapshots():
    cfg = SystemConfig(n_aps=30, n_users=5)
    beta = generate_static_dataset(cfg, 3, seed=5).beta
    coeffs = batch_sinr_coefficients(beta, cfg)
    sols = [solver.solve_maxmin_bisection(coeffs.sample(i)) for i in range(3)]
    return coeffs, sols


def test_gate_passes_the_solver(snapshots):
    coeffs, sols = snapshots
    for i, sol in enumerate(sols):
        assert gate.check_decision("baseline", sol.q_star, coeffs, i, sol.t_star) == []
        assert gate.check_decision("dnn", np.ones(5), coeffs, i, sol.t_star) == []


@pytest.mark.parametrize("bad", ["zeros", "nan", "shape", "above_bracket",
                                 "misses_t_star"])
def test_gate_counts_wrong_allocations(snapshots, bad):
    coeffs, sols = snapshots
    sol = sols[0]
    method, q, t_star = "dnn", sol.q_star, sol.t_star
    if bad == "zeros":
        method, q = "baseline", np.zeros(5)   # feasible, but misses t_star
    elif bad == "nan":
        q = np.full(5, np.nan)
    elif bad == "shape":
        q = np.ones(4)
    elif bad == "above_bracket":
        t_star = 0.5 * sol.t_star   # the optimal q now beats the upper bracket
    else:
        method, t_star = "baseline", 2.0 * sol.t_star
    ledger = gate.Ledger()
    ledger.record("decision", gate.check_decision(method, q, coeffs, 0, t_star))
    assert (ledger.attempted, ledger.failed, ledger.failed_frac) == (1, 1, 1.0)


def test_gate_counts_online_worse_than_dnn(snapshots):
    coeffs, sols = snapshots
    worse = gate.check_online_not_worse(0.5 * sols[0].q_star, sols[0].q_star, coeffs, 0)
    assert worse and gate.check_online_not_worse(
        sols[0].q_star, 0.5 * sols[0].q_star, coeffs, 0) == []


def test_raised_error_is_a_failed_operation():
    def broken():
        raise SolverError("feasibility undecided")
    ledger = gate.Ledger()
    assert ledger.run("solve", broken) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "SolverError" in ledger.problems[0]


def test_tampered_report_fails_audit(tmp_path):
    spec = workloads.WORKLOADS["offline-30x5"]
    ledger = gate.Ledger()
    workloads.run_pipeline(spec, 3, tmp_path / "p", ledger, 4, 5)
    assert ledger.failed == 0, ledger.problems
    csv = tmp_path / "p" / "reports" / "dnn" / "per_sample.csv"
    lines = csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * 0.5)
    lines[1] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    before = ledger.failed
    workloads.run_cli(ledger, ["--threads", "1", "--config",
                               str(tmp_path / "p" / "config.json"), "audit",
                               str(csv.parent), "--data", str(tmp_path / "p" / "data")])
    assert ledger.failed == before + 1


def test_self_times_add_up_to_the_root():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    def inner():
        return tracer.span("solver.leaf", leaf) + tracer.span("solver.leaf", leaf)

    tracer.span("bench.root", tracer.span, "rates.inner", inner)
    root = tracer.spans[0]
    assert [s[1] for s in tracer.spans] == [-1, 0, 1, 1]
    assert sum(tracer.self_times()) == pytest.approx(root[4] - root[3], rel=1e-9)
    assert min(tracer.self_times()) >= 0.0


@pytest.mark.parametrize("n,pct", [(15, 100.0), (20, 50.0), (100, 90.0),
                                   (999, 90.0), (1000, 99.0), (50000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    value, got = workloads.tail(np.arange(n, dtype=float))
    assert got == pct
    assert np.sum(np.arange(n) > value) >= (10 if pct < 100 else 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "decide-30x5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert out.stdout.strip() == ""
