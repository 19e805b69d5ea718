"""Checkpoint binary format: byte identity, validation errors, state restore."""

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossmodal.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointFormatError,
    CheckpointNameError,
    CheckpointShapeError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from crossmodal.config import ModelConfig
from crossmodal.optim import OptimizerState
from crossmodal.params import init_params

CFG = ModelConfig(vocab_size=17, num_labels=4, num_answers=6).validate()


def make_checkpoint(seed=0, with_opt=True, with_rng=True):
    params = init_params(CFG, np.random.default_rng(seed))
    opt = None
    if with_opt:
        opt = OptimizerState.init(params, 1e-3, 0.05, 100)
        opt.step = 7
        for k in opt.m:
            opt.m[k][:] = 0.25
    rng_state = None
    if with_rng:
        rng_state = np.random.default_rng(99).bit_generator.state
    return Checkpoint(config=CFG, heads=("pretrain",), params=params,
                      opt_state=opt, rng_state=rng_state,
                      extra={"answers": ["a", "b"], "epoch": 2})


def test_roundtrip_bit_identical(tmp_path):
    ckpt = make_checkpoint()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, ckpt)
    loaded = load_checkpoint(p1)
    save_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_preserves_everything(tmp_path):
    ckpt = make_checkpoint()
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config == CFG
    assert loaded.heads == ("pretrain",)
    assert loaded.extra["answers"] == ["a", "b"]
    assert loaded.rng_state == ckpt.rng_state
    assert loaded.opt_state.step == 7
    assert set(loaded.params) == set(ckpt.params)
    for name in ckpt.params:
        assert np.array_equal(loaded.params[name].data, ckpt.params[name].data)
        assert np.array_equal(loaded.opt_state.m[name], ckpt.opt_state.m[name])
        assert np.array_equal(loaded.opt_state.v[name], ckpt.opt_state.v[name])


def test_roundtrip_without_optimizer(tmp_path):
    ckpt = make_checkpoint(with_opt=False, with_rng=False)
    path = tmp_path / "d.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.opt_state is None
    assert loaded.rng_state is None


def test_load_under_mismatched_config_names_first_offender(tmp_path):
    ckpt = make_checkpoint()
    wrong = ModelConfig(vocab_size=17, num_labels=4, num_answers=6, hidden_size=128,
                        num_heads=4).validate()
    # a file whose stored config disagrees with its tensors
    ckpt.config = wrong
    path = tmp_path / "e.ckpt"
    save_checkpoint(path, ckpt)
    with pytest.raises(CheckpointShapeError) as err:
        load_checkpoint(path)
    # sorted order puts cross.0.ff_l.b1 first among mismatches
    assert "cross.0.ff_l.b1" in str(err.value)


def test_load_detects_name_set_mismatch(tmp_path):
    ckpt = make_checkpoint()
    removed = dict(ckpt.params)
    removed.pop("head.match.w")
    broken = Checkpoint(config=CFG, heads=("pretrain",), params=removed)
    path = tmp_path / "f.ckpt"
    save_checkpoint(path, broken)
    with pytest.raises(CheckpointNameError, match="head.match.w"):
        load_checkpoint(path)


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "g.ckpt"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_rejects_future_version(tmp_path):
    path = tmp_path / "h.ckpt"
    path.write_bytes(b"XMCP" + struct.pack("<I", 99) + b"\x00" * 8)
    with pytest.raises(CheckpointVersionError, match="99"):
        load_checkpoint(path)


def test_rejects_truncated_file(tmp_path):
    ckpt = make_checkpoint()
    path = tmp_path / "i.ckpt"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointFormatError, match="end of checkpoint"):
        load_checkpoint(path)


# a small model, so a checkpoint is a few kilobytes and every offset is cheap to try
SMALL = ModelConfig(n_lang_layers=1, n_cross_layers=1, n_vis_layers=1, hidden_size=8,
                    num_heads=2, feat_dim=4, vocab_size=7, num_labels=3, num_answers=2,
                    max_sentence_len=4, objects_per_image=2).validate()


def _small_checkpoint_bytes() -> bytes:
    params = init_params(SMALL, np.random.default_rng(0))
    ckpt = Checkpoint(config=SMALL, heads=("pretrain",), params=params,
                      opt_state=OptimizerState.init(params, 1e-3, 0.05, 10),
                      rng_state=np.random.default_rng(1).bit_generator.state,
                      extra={"answers": ["a", "b"], "epoch": 1})
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "small.ckpt")
        save_checkpoint(path, ckpt)
        with open(path, "rb") as fh:
            return fh.read()


SMALL_BYTES = _small_checkpoint_bytes()


def _first_extent_offset(raw: bytes) -> int:
    """Offset of the first tensor's first u32 extent."""
    at = 8  # magic, version
    for _ in range(2):  # header, rng state
        at += 4 + struct.unpack_from("<I", raw, at)[0]
    (name_len,) = struct.unpack_from("<H", raw, at + 4)  # past the tensor count
    return at + 4 + 2 + name_len + 2  # past the name, dtype code and ndim


def _load_bytes(raw: bytes):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "fuzzed.ckpt")
        with open(path, "wb") as fh:
            fh.write(raw)
        return load_checkpoint(path)


def test_small_checkpoint_loads():
    assert _load_bytes(SMALL_BYTES).config == SMALL


def test_stored_config_that_does_not_validate_is_format_error():
    raw = bytearray(SMALL_BYTES)
    at = raw.index(b'"num_heads":2') + len(b'"num_heads":')
    raw[at] = ord("3")  # 8 is not divisible by 3
    with pytest.raises(CheckpointFormatError, match="num_heads 3"):
        _load_bytes(bytes(raw))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=len(SMALL_BYTES) - 1))
def test_checkpoint_truncated_anywhere_is_format_error(cut):
    with pytest.raises(CheckpointFormatError):
        _load_bytes(SMALL_BYTES[:cut])


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=len(SMALL_BYTES) - 1), st.integers(1, 255))
# an extent's high byte: about 4e9 elements, once read as that many bytes (MemoryError)
@example(_first_extent_offset(SMALL_BYTES) + 3, 0xFF)
def test_checkpoint_with_one_flipped_byte_loads_or_raises_a_checkpoint_error(offset, xor):
    raw = bytearray(SMALL_BYTES)
    raw[offset] ^= xor
    try:
        _load_bytes(bytes(raw))
    except CheckpointError:
        pass


def test_rng_state_restores_stream(tmp_path):
    rng = np.random.default_rng(5)
    rng.random(100)
    ckpt = make_checkpoint(with_opt=False)
    ckpt.rng_state = rng.bit_generator.state
    path = tmp_path / "j.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    restored = np.random.default_rng(0)
    restored.bit_generator.state = loaded.rng_state
    assert np.array_equal(restored.random(16), rng.random(16))


def test_failed_save_leaves_previous_checkpoint(tmp_path, monkeypatch):
    import crossmodal.checkpoint as checkpoint

    path = tmp_path / "d.ckpt"
    save_checkpoint(path, make_checkpoint(seed=0))
    before = path.read_bytes()
    write = checkpoint._write_tensor
    calls = []

    def failing_write(*args):
        calls.append(args[1])
        if len(calls) == 3:
            raise OSError("disk full")
        write(*args)

    monkeypatch.setattr(checkpoint, "_write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, make_checkpoint(seed=1))
    assert len(calls) == 3
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.ckpt"]


def test_load_returns_parameters_in_layout_order(tmp_path):
    ckpt = make_checkpoint()
    path = tmp_path / "e.ckpt"
    save_checkpoint(path, ckpt)
    assert list(load_checkpoint(path).params) == list(ckpt.params)
