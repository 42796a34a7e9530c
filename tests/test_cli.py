import json

import numpy as np
import pytest

from cfmimo.checkpoints import Checkpoint, load_checkpoint
from cfmimo.cli import main
from cfmimo.config import DataConfig, SystemConfig, TrainConfig
from cfmimo.datasets import _HEADER, generate_splits
from cfmimo.errors import ValidationError
from cfmimo.reports import bench_methods
from cfmimo.training import train_model

SMALL = SystemConfig(n_aps=3, n_users=2)
TCFG = TrainConfig(iterations=30, batch_size=8, validation_every=10, seed=2)

CONFIG_TEXT = json.dumps({
    "system": {"n_aps": 3, "n_users": 2},
    "train": {"iterations": 30, "batch_size": 8,
              "validation_every": 10, "seed": 2},
    "data": {"train_samples": 24, "val_samples": 6, "test_samples": 6},
})


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(CONFIG_TEXT)
    data_dir = root / "data"
    model_path = root / "model.cfck"
    assert main(["--config", str(cfg_path), "--seed", "4",
                 "--out", str(data_dir), "gen-data"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(model_path),
                 "train", "--data", str(data_dir)]) == 0
    return root, cfg_path, data_dir, model_path


def test_gen_data_outputs(workspace):
    _, _, data_dir, _ = workspace
    for split in ("train", "val", "test"):
        assert (data_dir / f"{split}.cfmm").exists()
    assert (data_dir / "config.json").exists()


def test_gen_data_refuses_overwrite(workspace):
    _, cfg_path, data_dir, _ = workspace
    args = ["--config", str(cfg_path), "--seed", "4", "--out", str(data_dir)]
    assert main(args + ["gen-data"]) == 2
    before = (data_dir / "train.cfmm").read_bytes()
    assert main(args + ["--force", "gen-data"]) == 0
    # regeneration under the same seed is bit identical
    assert (data_dir / "train.cfmm").read_bytes() == before


def test_trained_checkpoint_loads(workspace):
    _, _, _, model_path = workspace
    ck = load_checkpoint(model_path)
    assert ck.n_aps == 3 and ck.n_users == 2
    assert len(ck.history) >= 4


def test_eval_and_report_and_audit(workspace, capsys):
    root, cfg_path, data_dir, model_path = workspace
    rep_dir = root / "rep_dnn"
    assert main(["--config", str(cfg_path), "--out", str(rep_dir), "eval",
                 "--data", str(data_dir), "--method", "dnn",
                 "--checkpoint", str(model_path)]) == 0
    assert (rep_dir / "summary.json").exists()

    assert main(["report", str(rep_dir)]) == 0
    out = capsys.readouterr().out
    assert "avg_min_rate" in out

    assert main(["--config", str(cfg_path), "audit", str(rep_dir),
                 "--data", str(data_dir)]) == 0

    # corrupt one stored rate and the audit must fail with the runtime code
    per = rep_dir / "per_sample.csv"
    lines = per.read_text().splitlines()
    cells = lines[1].split(",")
    cells[4] = repr(float(cells[4]) * 2.0)
    lines[1] = ",".join(cells)
    per.write_text("\n".join(lines) + "\n")
    assert main(["--config", str(cfg_path), "audit", str(rep_dir),
                 "--data", str(data_dir)]) == 4


def test_solve_baseline_alias(workspace):
    root, cfg_path, data_dir, _ = workspace
    rep_dir = root / "rep_base"
    assert main(["--config", str(cfg_path), "--out", str(rep_dir),
                 "solve-baseline", "--data", str(data_dir),
                 "--split", "val"]) == 0
    summary = json.loads((rep_dir / "summary.json").read_text())
    assert summary["method"] == "baseline"
    assert summary["n_samples"] == 6


def test_finetune_alias(workspace):
    root, cfg_path, data_dir, model_path = workspace
    rep_dir = root / "rep_ft"
    assert main(["--config", str(cfg_path), "--out", str(rep_dir),
                 "finetune", "--data", str(data_dir),
                 "--checkpoint", str(model_path),
                 "--finetune-steps", "5"]) == 0
    summary = json.loads((rep_dir / "summary.json").read_text())
    assert summary["method"] == "dnn-online"


def test_negative_finetune_steps_is_validation_error(workspace):
    root, cfg_path, data_dir, model_path = workspace
    assert main(["--config", str(cfg_path), "--out", str(root / "rep_neg"),
                 "finetune", "--data", str(data_dir),
                 "--checkpoint", str(model_path),
                 "--finetune-steps", "-1"]) == 2
    assert not (root / "rep_neg").exists()


def test_nan_finetune_lr_is_validation_error(workspace):
    root, cfg_path, data_dir, model_path = workspace
    assert main(["--config", str(cfg_path), "--out", str(root / "rep_nan"),
                 "finetune", "--data", str(data_dir),
                 "--checkpoint", str(model_path),
                 "--finetune-lr", "nan"]) == 2
    assert not (root / "rep_nan").exists()


def test_eval_requires_out_and_checkpoint(workspace):
    _, cfg_path, data_dir, _ = workspace
    assert main(["--config", str(cfg_path), "eval", "--data", str(data_dir),
                 "--method", "baseline"]) == 2
    assert main(["--config", str(cfg_path), "--out", "/tmp/x", "eval",
                 "--data", str(data_dir), "--method", "dnn"]) == 2


def test_checkpoint_config_mismatch_rejected(workspace):
    root, cfg_path, data_dir, model_path = workspace
    rep_dir = root / "rep_mismatch"
    # different training seed changes the digest the checkpoint must match
    assert main(["--config", str(cfg_path), "--seed", "9",
                 "--out", str(rep_dir), "eval", "--data", str(data_dir),
                 "--method", "dnn", "--checkpoint", str(model_path)]) == 2


def test_bad_config_is_validation_error(workspace, tmp_path):
    _, _, data_dir, _ = workspace
    bad = tmp_path / "bad.json"
    bad.write_text('{"system": {"n_app": 3}}')
    assert main(["--config", str(bad), "--out", str(tmp_path / "d"),
                 "gen-data"]) == 2
    assert main(["--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "d"), "gen-data"]) == 2
    nan = tmp_path / "nan.json"
    nan.write_text('{"system": {"noise_figure_db": NaN}}')
    assert main(["--config", str(nan), "--out", str(tmp_path / "d"),
                 "gen-data"]) == 2
    assert not (tmp_path / "d").exists()


def test_foreign_dataset_is_format_error(workspace, tmp_path):
    _, cfg_path, _, _ = workspace
    fake = tmp_path / "data"
    fake.mkdir()
    (fake / "test.cfmm").write_bytes(b"garbage" * 10)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "r"),
                 "eval", "--data", str(fake), "--method", "max-power"]) == 3


def test_zero_sample_split_is_format_error(workspace, tmp_path, capsys):
    _, cfg_path, data_dir, _ = workspace
    fields = list(_HEADER.unpack_from((data_dir / "val.cfmm").read_bytes()))
    fields[6] = 0  # samples; the payload of zero samples is empty
    empty = tmp_path / "data"
    empty.mkdir()
    (empty / "val.cfmm").write_bytes(_HEADER.pack(*fields))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "r"),
                 "eval", "--data", str(empty), "--split", "val",
                 "--method", "max-power"]) == 3
    assert "0 samples" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_missing_split_is_validation_error(workspace, tmp_path):
    _, cfg_path, _, _ = workspace
    empty = tmp_path / "data"
    empty.mkdir()
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "r"),
                 "eval", "--data", str(empty), "--method", "max-power"]) == 2


def test_threads_flag_validated():
    assert main(["--threads", "0", "report", "/nonexistent"]) == 2


def test_bench_command(workspace, capsys):
    root, cfg_path, data_dir, model_path = workspace
    out = root / "bench.json"
    assert main(["--config", str(cfg_path), "--out", str(out), "bench",
                 "--data", str(data_dir), "--checkpoint", str(model_path),
                 "--samples", "4", "--warmup", "1",
                 "--finetune-steps", "5"]) == 0
    table = json.loads(out.read_text())
    assert table["n_samples"] == 4
    assert set(table["mean_s"]) == {"baseline", "dnn", "dnn-online"}
    assert table["speedup_vs_baseline"]["baseline"] == pytest.approx(1.0)
    assert all(v > 0 for v in table["mean_s"].values())


def test_bench_counts_the_snapshots_it_timed(workspace):
    root, cfg_path, data_dir, _ = workspace
    out = root / "bench_all.json"
    # more than the 6-snapshot test split holds: all 6 are timed
    assert main(["--config", str(cfg_path), "--out", str(out), "bench",
                 "--data", str(data_dir), "--samples", "50",
                 "--warmup", "0"]) == 0
    assert json.loads(out.read_text())["n_samples"] == 6


@pytest.mark.parametrize("flags", [["--samples", "-4"], ["--samples", "0"],
                                   ["--warmup", "-1"]])
def test_bench_bad_counts_are_validation_errors(workspace, tmp_path, flags):
    _, cfg_path, data_dir, _ = workspace
    out = tmp_path / "bench.json"
    assert main(["--config", str(cfg_path), "--out", str(out), "bench",
                 "--data", str(data_dir), *flags]) == 2
    assert not out.exists()


def test_bench_checks_the_checkpoint_under_seed_like_eval(workspace, tmp_path):
    _, cfg_path, data_dir, _ = workspace
    model = tmp_path / "seed7.cfck"
    base = ["--config", str(cfg_path), "--seed", "7"]
    assert main(base + ["--out", str(model), "train", "--data", str(data_dir)]) == 0
    assert main(base + ["--out", str(tmp_path / "rep"), "eval",
                        "--data", str(data_dir), "--method", "dnn",
                        "--checkpoint", str(model)]) == 0
    assert main(base + ["bench", "--data", str(data_dir), "--checkpoint",
                        str(model), "--samples", "1", "--warmup", "0"]) == 0


def test_bench_rejects_dataset_of_another_scenario(workspace, tmp_path):
    _, _, data_dir, _ = workspace
    other = tmp_path / "other.json"
    other.write_text('{"system": {"n_aps": 9, "n_users": 3}}')
    out = tmp_path / "bench.json"
    assert main(["--config", str(other), "--out", str(out), "bench",
                 "--data", str(data_dir), "--samples", "2"]) == 2
    assert not out.exists()


# --- bench internals --------------------------------------------------------

def test_bench_methods_direct():
    data = DataConfig(train_samples=16, val_samples=4, test_samples=4)
    splits = generate_splits(SMALL, data, seed=8)
    run = train_model(splits["train"].beta, splits["val"].beta, SMALL, TCFG)
    ck = Checkpoint.from_run(run, SMALL, TCFG)
    times = bench_methods(splits["test"], SMALL, checkpoint=ck,
                          n_samples=3, warmup=1, finetune_steps=5)
    assert set(times) == set(("baseline", "dnn", "dnn-online"))
    for arr in times.values():
        assert arr.shape == (3,)
        assert np.all(arr > 0)


def test_bench_needs_checkpoint_for_network():
    data = DataConfig(train_samples=4, val_samples=2, test_samples=2)
    splits = generate_splits(SMALL, data, seed=8)
    with pytest.raises(ValidationError):
        bench_methods(splits["test"], SMALL, methods=("dnn",))
    with pytest.raises(ValidationError):
        bench_methods(splits["test"], SMALL, methods=("warp",))
    with pytest.raises(ValidationError, match="no snapshots"):
        bench_methods(splits["test"].slice(0, 0), SMALL, methods=("baseline",))
