"""Binary container for a trained power-control network.

Stores the flat parameter vector verbatim as float64 together with the
input normalizer, the validation history and a digest of the config that
produced the run, so a save/load/save cycle is byte identical and a
checkpoint can be matched against the scenario it was trained for.

Layout (little-endian):

    magic      "CFCK"        4 bytes
    version    u16           currently 1
    transform  u8            0 log features, 1 linear
    reserved   u8
    n_aps      u32
    n_users    u32
    n_layers   u32
    history    u64           number of history records
    best_iter  u64
    n_params   u64
    digest     32 bytes      config digest (system + train sections)
    sizes      u32[n_layers + 1]
    acts       u8[n_layers]  0 elu, 1 sigmoid
    mean       f8[sizes[0]]
    std        f8[sizes[0]]
    params     f8[n_params]
    records    (u64 iteration, f8 train loss, f8 val loss) * history
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SystemConfig, TrainConfig, config_digest
from .errors import FormatError, ValidationError, refuse_overwrite
from .mlp import INPUT_TRANSFORMS, Mlp, Normalizer, layer_sizes, parameter_count
from .training import TrainingRun

MAGIC = b"CFCK"
VERSION = 1
_HEADER = struct.Struct("<4sHBBIIIQQQ32s")
_RECORD = struct.Struct("<Qdd")


@dataclass
class Checkpoint:
    n_aps: int
    n_users: int
    model: Mlp
    normalizer: Normalizer
    history: list
    best_iteration: int
    digest: bytes

    @classmethod
    def from_run(cls, run: TrainingRun, system: SystemConfig,
                 train: TrainConfig) -> "Checkpoint":
        return cls(
            n_aps=system.n_aps,
            n_users=system.n_users,
            model=run.model,
            normalizer=run.normalizer,
            history=list(run.history),
            best_iteration=run.best_iteration,
            digest=config_digest(system, train),
        )


def save_checkpoint(path, ck: Checkpoint, *, force: bool = False):
    path = Path(path)
    refuse_overwrite(path, force)
    sizes = ck.model.sizes
    if sizes != layer_sizes(ck.n_aps, ck.n_users):
        raise ValidationError("model layer sizes do not match the stated dims")
    mean = np.ascontiguousarray(ck.normalizer.mean, dtype=np.float64)
    std = np.ascontiguousarray(ck.normalizer.std, dtype=np.float64)
    if mean.shape != (sizes[0],) or std.shape != (sizes[0],):
        raise ValidationError("normalizer statistics do not match the input width")
    n_layers = len(sizes) - 1
    header = _HEADER.pack(
        MAGIC, VERSION, INPUT_TRANSFORMS.index(ck.normalizer.mode), 0,
        ck.n_aps, ck.n_users, n_layers,
        len(ck.history), ck.best_iteration, ck.model.params.size, ck.digest,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(sizes, dtype="<u4").tobytes())
        acts = [0] * (n_layers - 1) + [1]
        fh.write(bytes(acts))
        fh.write(mean.tobytes())
        fh.write(std.tobytes())
        fh.write(ck.model.params.tobytes())
        for it, train_loss, val_loss in ck.history:
            fh.write(_RECORD.pack(it, train_loss, val_loss))


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    (magic, version, transform, _, m, k, n_layers,
     n_hist, best_iter, n_params, digest) = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if transform >= len(INPUT_TRANSFORMS):
        raise FormatError(f"{path}: unknown input transform code {transform}")

    offset = _HEADER.size
    body = len(raw) - offset
    sizes_bytes = (n_layers + 1) * 4
    need = sizes_bytes + n_layers
    if body < need:
        raise FormatError(f"{path}: truncated layer table")
    sizes = np.frombuffer(raw, dtype="<u4", count=n_layers + 1, offset=offset)
    sizes = [int(s) for s in sizes]
    offset += sizes_bytes
    acts = list(raw[offset:offset + n_layers])
    offset += n_layers
    if sizes != layer_sizes(m, k):
        raise FormatError(f"{path}: layer table does not match the stated dims")
    if acts != [0] * (n_layers - 1) + [1]:
        raise FormatError(f"{path}: unsupported activation pattern")
    if n_params != parameter_count(sizes):
        raise FormatError(f"{path}: parameter count does not match the layers")

    expected = (2 * sizes[0] + n_params) * 8 + n_hist * _RECORD.size
    if body - need != expected:
        raise FormatError(
            f"{path}: payload is {body - need} bytes, expected {expected}"
        )
    mean = np.frombuffer(raw, dtype="<f8", count=sizes[0], offset=offset).copy()
    offset += sizes[0] * 8
    std = np.frombuffer(raw, dtype="<f8", count=sizes[0], offset=offset).copy()
    offset += sizes[0] * 8
    params = np.frombuffer(raw, dtype="<f8", count=n_params, offset=offset).copy()
    offset += n_params * 8
    history = []
    for _ in range(n_hist):
        it, tr, va = _RECORD.unpack_from(raw, offset)
        history.append((it, tr, va))
        offset += _RECORD.size
    return Checkpoint(
        n_aps=m,
        n_users=k,
        model=Mlp(sizes, params),
        normalizer=Normalizer(INPUT_TRANSFORMS[transform], mean, std),
        history=history,
        best_iteration=best_iter,
        digest=digest,
    )
