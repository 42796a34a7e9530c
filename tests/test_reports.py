import json

import numpy as np
import pytest

from cfmimo.checkpoints import Checkpoint
from cfmimo.config import DataConfig, SystemConfig, TrainConfig
from cfmimo.datasets import generate_splits, generate_static_dataset
from cfmimo.errors import FormatError, ValidationError
from cfmimo.rates import rate_context
from cfmimo.reports import (
    RunReport,
    audit_report,
    evaluate,
    load_report,
    save_report,
)
from cfmimo.solver import solve_maxmin_bisection
from cfmimo.training import train_model

SMALL = SystemConfig(n_aps=4, n_users=2)
TCFG = TrainConfig(iterations=60, batch_size=10, validation_every=20, seed=3)


@pytest.fixture(scope="module")
def setup():
    data = DataConfig(train_samples=40, val_samples=8, test_samples=8)
    splits = generate_splits(SMALL, data, seed=11)
    run = train_model(splits["train"].beta, splits["val"].beta, SMALL, TCFG)
    ck = Checkpoint.from_run(run, SMALL, TCFG)
    return splits, ck


# --- evaluation -------------------------------------------------------------

def test_methods_produce_sane_reports(setup):
    splits, ck = setup
    test_ds = splits["test"]
    reports = {
        m: evaluate(m, test_ds, SMALL, checkpoint=ck)
        for m in ("baseline", "max-power", "dnn", "dnn-online")
    }
    for m, rep in reports.items():
        assert rep.method == m
        assert rep.q.shape == (8, 2)
        assert rep.rates.shape == (8, 2)
        assert rep.q.min() >= 0.0 and rep.q.max() <= 1.0 + 1e-12
        assert np.all(rep.rates > 0.0)
    # the exact solver bounds every other allocation sample by sample
    base_min = reports["baseline"].min_rates()
    for m in ("max-power", "dnn", "dnn-online"):
        assert np.all(reports[m].min_rates() <= base_min * (1.0 + 2e-4))
    # adaptation can only improve on the direct network output
    assert np.all(reports["dnn-online"].min_rates()
                  >= reports["dnn"].min_rates() - 1e-12)


def test_max_power_matches_hand_rates(setup):
    splits, _ = setup
    rep = evaluate("max-power", splits["test"], SMALL)
    assert np.allclose(rep.q, 1.0)


def test_evaluate_rejects_mismatched_scenario(setup):
    splits, ck = setup
    other = generate_static_dataset(SystemConfig(n_aps=5, n_users=2), 4, seed=0)
    with pytest.raises(ValidationError, match="scenario"):
        evaluate("baseline", other, SMALL)


def test_evaluate_rejects_bad_method_or_missing_checkpoint(setup):
    splits, ck = setup
    with pytest.raises(ValidationError, match="unknown method"):
        evaluate("genie", splits["test"], SMALL)
    with pytest.raises(ValidationError, match="checkpoint"):
        evaluate("dnn", splits["test"], SMALL)


def test_baseline_report_equals_single_snapshot_solve(setup):
    # evaluate's batched coefficients and a per-snapshot rate context give
    # the solver bit-identical input, so the two routes agree exactly
    splits, _ = setup
    default = SystemConfig()
    for cfg, ds in ((SMALL, splits["test"]),
                    (default, generate_static_dataset(default, 8, seed=0))):
        rep = evaluate("baseline", ds, cfg)
        for i in range(len(ds)):
            single = solve_maxmin_bisection(rate_context(ds.beta[i], cfg))
            assert np.array_equal(rep.q[i], single.q_star)


def test_summary_percentile_oracle():
    # pooled throughputs 1,2,3,4 with unit factor: the 5th percentile under
    # linear interpolation sits at 1 + 0.15 * (2 - 1)
    rep = RunReport(
        method="max-power", n_aps=1, n_users=2, dataset_seed=0,
        sample_offset=0, dataset_digest="00", net_factor=1.0,
        q=np.ones((2, 2)), rates=np.array([[1.0, 2.0], [3.0, 4.0]]),
    )
    s = rep.summary()
    assert s["p95_likely_user_net_throughput"] == pytest.approx(1.15, abs=1e-12)
    assert s["avg_min_rate"] == pytest.approx(2.0)
    assert s["median_min_rate"] == pytest.approx(2.0)
    assert s["avg_user_net_throughput"] == pytest.approx(2.5)


# --- report directory -------------------------------------------------------

def test_report_roundtrip(tmp_path, setup):
    splits, ck = setup
    rep = evaluate("dnn", splits["test"], SMALL, checkpoint=ck)
    out = tmp_path / "rep"
    save_report(out, rep)
    back = load_report(out)
    assert back.method == "dnn"
    assert np.array_equal(back.q, rep.q)
    assert np.array_equal(back.rates, rep.rates)
    assert back.summary() == rep.summary()


def test_report_save_load_save_byte_identical(tmp_path, setup):
    splits, ck = setup
    rep = evaluate("baseline", splits["test"], SMALL)
    a = tmp_path / "a"
    b = tmp_path / "b"
    save_report(a, rep)
    save_report(b, load_report(a))
    for name in ("summary.json", "per_sample.csv",
                 "cdf_min_rate.csv", "cdf_user_net_throughput.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_report_refuses_overwrite(tmp_path, setup):
    splits, _ = setup
    rep = evaluate("max-power", splits["test"], SMALL)
    out = tmp_path / "rep"
    save_report(out, rep)
    with pytest.raises(ValidationError):
        save_report(out, rep)
    save_report(out, rep, force=True)


def test_load_rejects_damaged_reports(tmp_path, setup):
    splits, _ = setup
    rep = evaluate("max-power", splits["test"], SMALL)
    out = tmp_path / "rep"
    save_report(out, rep)

    with pytest.raises(FormatError, match="summary"):
        load_report(tmp_path / "nowhere")

    (out / "summary.json").write_text("{broken")
    with pytest.raises(FormatError):
        load_report(out)

    save_report(out, rep, force=True)
    per = out / "per_sample.csv"
    lines = per.read_text().splitlines()
    per.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(FormatError, match="rows"):
        load_report(out)

    save_report(out, rep, force=True)
    summary = json.loads((out / "summary.json").read_text())
    del summary["net_factor"]
    (out / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(FormatError, match="net_factor"):
        load_report(out)


# --- audit ------------------------------------------------------------------

def test_audit_clean(tmp_path, setup):
    splits, ck = setup
    rep = evaluate("dnn", splits["test"], SMALL, checkpoint=ck)
    out = tmp_path / "rep"
    save_report(out, rep)
    assert audit_report(out, splits["test"], SMALL) == []


def test_audit_flags_tampered_rates(tmp_path, setup):
    splits, _ = setup
    rep = evaluate("max-power", splits["test"], SMALL)
    out = tmp_path / "rep"
    save_report(out, rep)
    per = out / "per_sample.csv"
    lines = per.read_text().splitlines()
    cells = lines[1].split(",")
    k = SMALL.n_users
    cells[2 + k] = repr(float(cells[2 + k]) * 1.5)
    lines[1] = ",".join(cells)
    per.write_text("\n".join(lines) + "\n")
    problems = audit_report(out, splits["test"], SMALL)
    assert any("deviate" in p for p in problems)
    assert any("per_sample.csv" in p for p in problems)


def test_audit_flags_tampered_summary(tmp_path, setup):
    splits, _ = setup
    rep = evaluate("max-power", splits["test"], SMALL)
    out = tmp_path / "rep"
    save_report(out, rep)
    summary = json.loads((out / "summary.json").read_text())
    summary["avg_min_rate"] *= 2.0
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    problems = audit_report(out, splits["test"], SMALL)
    assert problems == ["summary.json does not match its regeneration"]


def test_audit_flags_wrong_dataset(tmp_path, setup):
    splits, _ = setup
    rep = evaluate("max-power", splits["test"], SMALL)
    out = tmp_path / "rep"
    save_report(out, rep)
    other = generate_static_dataset(SMALL, 8, seed=99)
    problems = audit_report(out, other, SMALL)
    assert any("deviate" in p for p in problems)


def test_audit_flags_missing_file(tmp_path, setup):
    splits, _ = setup
    rep = evaluate("max-power", splits["test"], SMALL)
    out = tmp_path / "rep"
    save_report(out, rep)
    (out / "cdf_min_rate.csv").unlink()
    problems = audit_report(out, splits["test"], SMALL)
    assert "cdf_min_rate.csv is missing" in problems
