"""Checkpoint binary format: byte identity, validation errors, state restore."""

import struct

import numpy as np
import pytest

from crossmodal.checkpoint import (
    Checkpoint,
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
    path = tmp_path / "e.ckpt"
    save_checkpoint(path, ckpt)
    wrong = ModelConfig(vocab_size=17, num_labels=4, num_answers=6, hidden_size=128,
                        num_heads=4).validate()
    with pytest.raises(CheckpointShapeError) as err:
        load_checkpoint(path, expected_config=wrong)
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
