"""Versioned binary checkpoints: config, named tensors, optimizer state, rng state.

Layout (all integers little-endian; documented byte-exact in docs/formats.md):

    magic  b"XMCP"
    u32    format version
    u32    header JSON length, then that many UTF-8 bytes
           header = {"model": <ModelConfig fields>, "heads": [...], "extra": {...}}
    u32    rng JSON length, then bytes ("null" when absent)
    u32    tensor count, then per tensor:
             u16 name length + name bytes
             u8  dtype code (0 = float32, 1 = float64)
             u8  ndim, then ndim * u32 extents
             raw values, little-endian, C order
    u8     optimizer flag; when 1:
             u32 optimizer JSON length + bytes
               {"step", "beta1", "beta2", "eps", "peak_lr",
                "warmup_fraction", "total_steps"}
             u32 moment tensor count + tensor blocks named
               "m.<param>" and "v.<param>"

Tensors are written in sorted-name order, so save -> load -> save is
byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .atomic import atomic_open
from .config import ModelConfig
from .data import read_exact
from .optim import OptimizerState
from .params import parameter_layout
from .tensor import Tensor

MAGIC = b"XMCP"
VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(Exception):
    """Base class for checkpoint problems."""


class CheckpointFormatError(CheckpointError):
    """File is not a checkpoint or is structurally corrupt."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class CheckpointNameError(CheckpointError):
    """Stored parameter names do not match the config's layout."""


class CheckpointShapeError(CheckpointError):
    """A stored tensor's shape does not match the expected layout."""


@dataclass
class Checkpoint:
    config: ModelConfig
    heads: tuple[str, ...]
    params: dict[str, Tensor]
    opt_state: OptimizerState | None = None
    rng_state: dict | None = None
    extra: dict | None = None


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_tensor(fh, name: str, data: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    code = _DTYPE_CODES.get(data.dtype)
    if code is None:
        raise CheckpointFormatError(f"tensor {name!r} has unsupported dtype {data.dtype}")
    fh.write(struct.pack("<BB", code, data.ndim))
    for extent in data.shape:
        fh.write(struct.pack("<I", extent))
    fh.write(np.ascontiguousarray(data, dtype=_CODE_DTYPES[code]).tobytes())


def _read_exact(fh, n: int, size: int) -> bytes:
    return read_exact(fh, n, size, CheckpointFormatError, "checkpoint")


def _read_tensor(fh, size: int) -> tuple[str, np.ndarray]:
    """One tensor block from ``fh``, a file of ``size`` bytes."""
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2, size))
    name = _read_exact(fh, name_len, size).decode("utf-8")
    code, ndim = struct.unpack("<BB", _read_exact(fh, 2, size))
    if code not in _CODE_DTYPES:
        raise CheckpointFormatError(f"tensor {name!r} has unknown dtype code {code}")
    shape = tuple(struct.unpack("<I", _read_exact(fh, 4, size))[0] for _ in range(ndim))
    dtype = _CODE_DTYPES[code]
    data = np.frombuffer(_read_exact(fh, math.prod(shape) * dtype.itemsize, size), dtype=dtype)
    return name, data.reshape(shape).copy()


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to ``path`` atomically (``atomic.atomic_open``)."""
    with atomic_open(path, "wb") as fh:
        _write_checkpoint(fh, ckpt)


def _write_checkpoint(fh, ckpt: Checkpoint) -> None:
    header = {
        "model": asdict(ckpt.config),
        "heads": list(ckpt.heads),
        "extra": ckpt.extra or {},
    }
    fh.write(MAGIC)
    fh.write(struct.pack("<I", VERSION))
    blob = _json_bytes(header)
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)
    rng_blob = _json_bytes(ckpt.rng_state)
    fh.write(struct.pack("<I", len(rng_blob)))
    fh.write(rng_blob)

    names = sorted(ckpt.params)
    fh.write(struct.pack("<I", len(names)))
    for name in names:
        _write_tensor(fh, name, ckpt.params[name].data)

    if ckpt.opt_state is None:
        fh.write(struct.pack("<B", 0))
    else:
        fh.write(struct.pack("<B", 1))
        st = ckpt.opt_state
        opt_blob = _json_bytes({
            "step": st.step, "beta1": st.beta1, "beta2": st.beta2, "eps": st.eps,
            "peak_lr": st.peak_lr, "warmup_fraction": st.warmup_fraction,
            "total_steps": st.total_steps,
        })
        fh.write(struct.pack("<I", len(opt_blob)))
        fh.write(opt_blob)
        moment_names = sorted(st.m)
        fh.write(struct.pack("<I", 2 * len(moment_names)))
        for name in moment_names:
            _write_tensor(fh, f"m.{name}", st.m[name])
        for name in moment_names:
            _write_tensor(fh, f"v.{name}", st.v[name])


def _validate_layout(params: dict[str, np.ndarray], cfg: ModelConfig,
                     heads: tuple[str, ...]) -> dict[str, tuple[int, ...]]:
    layout = parameter_layout(cfg, heads)
    stored = set(params)
    expected = set(layout)
    if stored != expected:
        missing = sorted(expected - stored)
        surplus = sorted(stored - expected)
        raise CheckpointNameError(
            f"parameter names do not match the config layout "
            f"(missing {missing[:3]}, unexpected {surplus[:3]})"
        )
    for name in sorted(layout):
        if params[name].shape != layout[name]:
            raise CheckpointShapeError(
                f"tensor {name!r} has shape {params[name].shape}, expected {layout[name]}"
            )
    return layout


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint and validate its tensors against the stored config's layout.

    Bytes that do not decode or parse, including stored JSON that does not
    build a ModelConfig or OptimizerState, raise ``CheckpointFormatError``.
    Comparing the stored config with a run's is the caller's business.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic = fh.read(4)
            if magic != MAGIC:
                raise CheckpointFormatError(f"not a checkpoint file (magic {magic!r})")
            (version,) = struct.unpack("<I", _read_exact(fh, 4, size))
            if version != VERSION:
                raise CheckpointVersionError(
                    f"checkpoint format version {version}, this build reads {VERSION}"
                )
            (hdr_len,) = struct.unpack("<I", _read_exact(fh, 4, size))
            header = json.loads(_read_exact(fh, hdr_len, size).decode("utf-8"))
            (rng_len,) = struct.unpack("<I", _read_exact(fh, 4, size))
            rng_state = json.loads(_read_exact(fh, rng_len, size).decode("utf-8"))

            known = {f.name for f in fields(ModelConfig)}
            stored_model = {k: v for k, v in header.get("model", {}).items() if k in known}
            config = ModelConfig(**stored_model).validate()
            heads = tuple(header.get("heads", ()))
            extra = header.get("extra", {})

            (n_tensors,) = struct.unpack("<I", _read_exact(fh, 4, size))
            raw_params: dict[str, np.ndarray] = {}
            for _ in range(n_tensors):
                name, data = _read_tensor(fh, size)
                raw_params[name] = data

            opt_state = None
            (opt_flag,) = struct.unpack("<B", _read_exact(fh, 1, size))
            if opt_flag:
                (opt_len,) = struct.unpack("<I", _read_exact(fh, 4, size))
                opt_meta = json.loads(_read_exact(fh, opt_len, size).decode("utf-8"))
                (n_moments,) = struct.unpack("<I", _read_exact(fh, 4, size))
                m: dict[str, np.ndarray] = {}
                v: dict[str, np.ndarray] = {}
                for _ in range(n_moments):
                    name, data = _read_tensor(fh, size)
                    if name.startswith("m."):
                        m[name[2:]] = data
                    elif name.startswith("v."):
                        v[name[2:]] = data
                    else:
                        raise CheckpointFormatError(f"unexpected moment tensor {name!r}")
                opt_state = OptimizerState(m=m, v=v, **opt_meta)
    except (ValueError, TypeError, struct.error) as exc:
        raise CheckpointFormatError(f"corrupt checkpoint {path}: {exc}") from exc

    layout = _validate_layout(raw_params, config, heads)
    # in layout order, as init_params makes them, so a loaded model packs
    # into the same flat buffers (optim) as a fresh one
    params = {name: Tensor(raw_params[name], requires_grad=True) for name in layout}
    return Checkpoint(config=config, heads=heads, params=params,
                      opt_state=opt_state, rng_state=rng_state, extra=extra)
