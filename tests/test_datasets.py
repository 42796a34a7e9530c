import numpy as np
import pytest

from cfmimo.config import DataConfig, SystemConfig, scenario_digest
from cfmimo.datasets import (
    _HEADER,
    MAGIC,
    VERSION,
    Dataset,
    generate_mobility_dataset,
    generate_splits,
    generate_static_dataset,
    load_dataset,
    save_dataset,
)
from cfmimo.errors import FormatError, ValidationError

SMALL = SystemConfig(n_aps=4, n_users=2)
GRID = SystemConfig(n_aps=4, n_users=2, grid_shape=(2, 2))


# --- generation -------------------------------------------------------------

def test_static_generation_deterministic():
    a = generate_static_dataset(SMALL, 6, seed=5)
    b = generate_static_dataset(SMALL, 6, seed=5)
    c = generate_static_dataset(SMALL, 6, seed=6)
    assert np.array_equal(a.beta, b.beta)
    assert not np.array_equal(a.beta, c.beta)
    assert a.digest == scenario_digest(SMALL)


def test_static_shards_rebuild_in_isolation():
    # per-sample streams: samples 3..6 of the full run equal a fresh
    # 4-sample run started at offset 3
    full = generate_static_dataset(SMALL, 10, seed=7)
    shard = generate_static_dataset(SMALL, 4, seed=7, sample_offset=3)
    assert np.array_equal(full.beta[3:7], shard.beta)
    assert np.array_equal(full.slice(3, 7).beta, shard.beta)
    assert full.slice(3, 7).sample_offset == 3


def test_static_splits_are_disjoint_streams():
    data = DataConfig(train_samples=8, val_samples=3, test_samples=2)
    splits = generate_splits(SMALL, data, seed=1)
    assert [len(splits[k]) for k in ("train", "val", "test")] == [8, 3, 2]
    assert splits["val"].sample_offset == 8
    assert splits["test"].sample_offset == 11
    again = generate_static_dataset(SMALL, 3, seed=1, sample_offset=8)
    assert np.array_equal(splits["val"].beta, again.beta)


def test_mobility_requires_grid():
    with pytest.raises(ValidationError):
        generate_mobility_dataset(SMALL, 10, seed=0)


def test_mobility_deterministic_with_positions():
    a = generate_mobility_dataset(GRID, 25, seed=3)
    b = generate_mobility_dataset(GRID, 25, seed=3)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.user_positions, b.user_positions)
    assert a.ap_positions.shape == (4, 2)
    assert a.user_positions.shape == (25, 2, 2)


def test_mobility_moves_one_axis_per_second():
    ds = generate_mobility_dataset(GRID, 40, seed=4)
    steps = np.abs(np.diff(ds.user_positions, axis=0))
    # axis-aligned motion: one coordinate changes per user per step, by at
    # most the speed cap; reflections only shorten the net displacement
    assert np.all(steps.max(axis=2) <= 20.0 + 1e-9)
    moved_axes = (steps > 1e-12).sum(axis=2)
    assert np.all(moved_axes <= 1)


def test_mobility_shadowing_varies_while_standing():
    # consecutive snapshots of a slow user still differ because shadowing
    # is redrawn every second
    ds = generate_mobility_dataset(GRID, 5, seed=5)
    assert not np.allclose(ds.beta[0], ds.beta[1], rtol=1e-3, atol=0.0)


def test_mobility_split_preserves_temporal_order():
    data = DataConfig(scenario="mobility", train_samples=10,
                      val_samples=4, test_samples=3)
    splits = generate_splits(GRID, data, seed=6)
    full = generate_mobility_dataset(GRID, 17, seed=6)
    stitched = np.concatenate([splits[k].beta for k in ("train", "val", "test")])
    assert np.array_equal(stitched, full.beta)
    assert splits["test"].sample_offset == 14
    assert np.array_equal(splits["test"].user_positions, full.user_positions[14:])


# --- container format -------------------------------------------------------

def test_roundtrip_static(tmp_path):
    ds = generate_static_dataset(SMALL, 7, seed=9)
    path = tmp_path / "d.cfmm"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.scenario == "static"
    assert np.array_equal(back.beta, ds.beta)
    assert back.seed == 9
    assert back.sample_offset == 0
    assert back.digest == ds.digest
    assert back.ap_positions is None and back.user_positions is None


def test_roundtrip_mobility(tmp_path):
    ds = generate_mobility_dataset(GRID, 6, seed=2)
    path = tmp_path / "m.cfmm"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.scenario == "mobility"
    assert np.array_equal(back.beta, ds.beta)
    assert np.array_equal(back.ap_positions, ds.ap_positions)
    assert np.array_equal(back.user_positions, ds.user_positions)


def test_save_load_save_is_byte_identical(tmp_path):
    for ds in (generate_static_dataset(SMALL, 5, seed=1),
               generate_mobility_dataset(GRID, 5, seed=1)):
        p1 = tmp_path / f"{ds.scenario}_1.cfmm"
        p2 = tmp_path / f"{ds.scenario}_2.cfmm"
        save_dataset(p1, ds)
        save_dataset(p2, load_dataset(p1))
        assert p1.read_bytes() == p2.read_bytes()


def test_refuses_overwrite_without_force(tmp_path):
    ds = generate_static_dataset(SMALL, 2, seed=0)
    path = tmp_path / "d.cfmm"
    save_dataset(path, ds)
    with pytest.raises(ValidationError):
        save_dataset(path, ds)
    save_dataset(path, ds, force=True)


@pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 2), (2, 3, 0)])
def test_zero_size_header_is_format_error(tmp_path, shape):
    # a consistent file whose header counts no samples, APs or users
    n, m, k = shape
    path = tmp_path / "empty.cfmm"
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, 0, 0, m, k, n, 0, 0, bytes(32)))
    with pytest.raises(FormatError, match=f"{n} samples, {m} APs, {k} users"):
        load_dataset(path)


@pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 2), (2, 3, 0), (3, 2)])
def test_save_refuses_empty_or_flat_gains(tmp_path, shape):
    ds = generate_static_dataset(SMALL, 2, seed=0)
    ds.beta = np.ones(shape)
    path = tmp_path / "empty.cfmm"
    with pytest.raises(ValidationError, match="non-empty"):
        save_dataset(path, ds)
    assert not path.exists()


@pytest.mark.parametrize("scenario", ["static", "mobility"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_payload_one_byte_off_is_format_error(tmp_path, scenario, extra):
    ds = (generate_static_dataset(SMALL, 3, seed=0) if scenario == "static"
          else generate_mobility_dataset(GRID, 3, seed=0))
    good = tmp_path / "good.cfmm"
    save_dataset(good, ds)
    raw = good.read_bytes()
    bad = tmp_path / "bad.cfmm"
    bad.write_bytes(raw[:-1] if extra < 0 else raw + b"\0")
    with pytest.raises(FormatError, match=f"payload is {len(raw) + extra - _HEADER.size} bytes"):
        load_dataset(bad)


def test_rejects_foreign_and_damaged_files(tmp_path):
    path = tmp_path / "d.cfmm"
    path.write_bytes(b"PNG!" + bytes(100))
    with pytest.raises(FormatError, match="not a dataset"):
        load_dataset(path)

    ds = generate_static_dataset(SMALL, 3, seed=0)
    good = tmp_path / "good.cfmm"
    save_dataset(good, ds)
    raw = good.read_bytes()

    truncated = tmp_path / "trunc.cfmm"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="payload"):
        load_dataset(truncated)

    padded = tmp_path / "padded.cfmm"
    padded.write_bytes(raw + bytes(8))
    with pytest.raises(FormatError, match="payload"):
        load_dataset(padded)

    wrong_version = tmp_path / "ver.cfmm"
    wrong_version.write_bytes(raw[:4] + b"\x63\x00\x00\x00" + raw[8:])
    with pytest.raises(FormatError, match="version"):
        load_dataset(wrong_version)

    tiny = tmp_path / "tiny.cfmm"
    tiny.write_bytes(raw[:10])
    with pytest.raises(FormatError, match="header"):
        load_dataset(tiny)
