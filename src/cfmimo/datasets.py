"""Snapshot dataset generation and the on-disk container format.

A dataset file stores a stack of large-scale gain matrices together with
everything needed to regenerate it bit for bit: the seed, the index of the
first sample inside the seed's stream, and a digest of the generating
scenario.  Static samples are drawn from per-sample random streams spawned
off one seed, so any split or shard of a dataset can be rebuilt in
isolation.  Mobility data is one sequential trajectory sampled once per
second; its files additionally carry the AP grid and per-sample user
positions.

Layout (little-endian):

    magic     "CFMM"          4 bytes
    version   u32             currently 1
    scenario  u8              0 static, 1 mobility
    positions u8              1 when position arrays follow the gains
    n_aps     u32
    n_users   u32
    samples   u64
    seed      u64
    offset    u64             stream index of the first sample
    digest    32 bytes        scenario digest of the generating config
    beta      float64[samples, n_aps, n_users]  C order
    ap_pos    float64[n_aps, 2]                 only when positions == 1
    user_pos  float64[samples, n_users, 2]      only when positions == 1
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DataConfig, SystemConfig, scenario_digest
from .errors import FormatError, ValidationError, refuse_overwrite
from .geometry import (
    generate_realization,
    grid_ap_positions,
    initial_mobility_state,
    large_scale_fading,
    step_mobility,
)

MAGIC = b"CFMM"
VERSION = 1
_HEADER = struct.Struct("<4sIBBIIQQQ32s")
_SCENARIO_CODES = {"static": 0, "mobility": 1}
_SCENARIO_NAMES = {v: k for k, v in _SCENARIO_CODES.items()}

MOBILITY_STEP_S = 1.0


@dataclass
class Dataset:
    scenario: str
    beta: np.ndarray                        # (N, M, K)
    seed: int
    sample_offset: int
    digest: bytes
    ap_positions: np.ndarray | None = None  # (M, 2)
    user_positions: np.ndarray | None = None  # (N, K, 2)

    def __len__(self) -> int:
        return self.beta.shape[0]

    def slice(self, start: int, stop: int) -> "Dataset":
        """Contiguous sub-range; the stream offset moves along with it."""
        return Dataset(
            scenario=self.scenario,
            beta=self.beta[start:stop],
            seed=self.seed,
            sample_offset=self.sample_offset + start,
            digest=self.digest,
            ap_positions=self.ap_positions,
            user_positions=None if self.user_positions is None
            else self.user_positions[start:stop],
        )


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent random stream for one sample index under one seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    )


def generate_static_dataset(
    cfg: SystemConfig, n_samples: int, seed: int, sample_offset: int = 0
) -> Dataset:
    """Independent uniform drops, one spawned stream per sample index."""
    beta = np.empty((n_samples, cfg.n_aps, cfg.n_users))
    for i in range(n_samples):
        rng = sample_rng(seed, sample_offset + i)
        beta[i] = generate_realization(cfg, rng).beta
    return Dataset("static", beta, seed, sample_offset, scenario_digest(cfg))


def generate_mobility_dataset(cfg: SystemConfig, n_samples: int, seed: int) -> Dataset:
    """One trajectory: gridded APs, moving users, one snapshot per second.

    Shadowing is redrawn independently for every snapshot.
    """
    if cfg.grid_shape is None:
        raise ValidationError("mobility data needs grid_shape in the config")
    rng = sample_rng(seed, 0)
    ap_pos = grid_ap_positions(cfg)
    state = initial_mobility_state(cfg, rng)
    beta = np.empty((n_samples, cfg.n_aps, cfg.n_users))
    user_pos = np.empty((n_samples, cfg.n_users, 2))
    for i in range(n_samples):
        shadow = rng.standard_normal((cfg.n_aps, cfg.n_users))
        beta[i] = large_scale_fading(cfg, ap_pos, state.user_positions, shadow)
        user_pos[i] = state.user_positions
        if i + 1 < n_samples:
            state = step_mobility(state, MOBILITY_STEP_S, cfg, rng)
    return Dataset("mobility", beta, seed, 0, scenario_digest(cfg),
                   ap_positions=ap_pos, user_positions=user_pos)


def generate_splits(cfg: SystemConfig, data: DataConfig, seed: int) -> dict:
    """Train/val/test datasets for either scenario.

    Static splits use disjoint stream offsets of the same seed.  The
    mobility trajectory is cut in temporal order, so the test window lies
    in the future of the training window.
    """
    sizes = (data.train_samples, data.val_samples, data.test_samples)
    if data.scenario == "static":
        offsets = (0, sizes[0], sizes[0] + sizes[1])
        parts = [
            generate_static_dataset(cfg, n, seed, off)
            for n, off in zip(sizes, offsets)
        ]
    else:
        full = generate_mobility_dataset(cfg, sum(sizes), seed)
        edges = np.cumsum((0,) + sizes)
        parts = [full.slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]
    return dict(zip(("train", "val", "test"), parts))


def save_dataset(path, ds: Dataset, *, force: bool = False):
    path = Path(path)
    refuse_overwrite(path, force)
    if ds.scenario not in _SCENARIO_CODES:
        raise ValidationError(f"unknown scenario {ds.scenario!r}")
    if len(ds.digest) != 32:
        raise ValidationError("digest must be 32 bytes")
    beta = np.ascontiguousarray(ds.beta, dtype=np.float64)
    if beta.ndim != 3 or 0 in beta.shape:
        raise ValidationError(
            f"beta must be a non-empty (samples, APs, users) stack, "
            f"not shape {beta.shape}")
    n, m, k = beta.shape
    has_pos = ds.ap_positions is not None and ds.user_positions is not None
    header = _HEADER.pack(
        MAGIC, VERSION, _SCENARIO_CODES[ds.scenario], int(has_pos),
        m, k, n, ds.seed, ds.sample_offset, ds.digest,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(beta.data)
        if has_pos:
            for pos in (ds.ap_positions, ds.user_positions):
                fh.write(np.ascontiguousarray(pos, dtype=np.float64).data)


def load_dataset(path) -> Dataset:
    """Read a dataset file: the header, then each array straight into its
    own buffer, so the payload is held once."""
    path = Path(path)
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, scen, has_pos, m, k, n, seed, offset, digest = \
            _HEADER.unpack(raw)
        if magic != MAGIC:
            raise FormatError(f"{path}: not a dataset file")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if scen not in _SCENARIO_NAMES:
            raise FormatError(f"{path}: unknown scenario code {scen}")
        if 0 in (n, m, k):
            raise FormatError(f"{path}: header gives {n} samples, {m} APs, {k} users")
        shapes = [(n, m, k)] + ([(m, 2), (n, k, 2)] if has_pos else [])
        expected = sum(math.prod(shape) for shape in shapes) * 8
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:
            raise FormatError(
                f"{path}: payload is {size} bytes, expected {expected}"
            )
        arrays = []
        for shape in shapes:
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr.data) != arr.nbytes:
                raise FormatError(f"{path}: payload ended early")
            arrays.append(arr)
    beta, ap_pos, user_pos = arrays + [None] * (3 - len(arrays))
    return Dataset(
        scenario=_SCENARIO_NAMES[scen],
        beta=beta,
        seed=seed,
        sample_offset=offset,
        digest=digest,
        ap_positions=ap_pos,
        user_positions=user_pos,
    )
