"""Command-line surface: the full pipeline end to end plus error categories."""

import json
import os
import shutil

import numpy as np
import pytest

from crossmodal.cli import main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    code = main(["gen-data", "--out", str(path), "--images", "24", "--pairs", "24",
                 "--seed", "0"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("run")
    cfg_path = path / "config.json"
    cfg_path.write_text(json.dumps({
        "schedule": {"epochs": 2, "batch_size": 8, "peak_lr": 1e-3},
    }))
    code = main(["pretrain", "--data", str(data_dir), "--config", str(cfg_path),
                 "--seed", "1", "--out", str(path)])
    assert code == 0
    return path


def test_gen_data_writes_expected_files(data_dir):
    for name in ("corpus.jsonl", "features.bin", "vocab.json", "labels.json",
                 "pairs.jsonl", "config.json"):
        assert os.path.exists(data_dir / name), name


def test_stats_prints_table(data_dir, capsys):
    assert main(["stats", "--data", str(data_dir)]) == 0
    out = capsys.readouterr().out
    assert "train" in out and "dev" in out and "all" in out


def test_stats_without_inputs_is_config_error(capsys):
    assert main(["stats"]) == 2
    assert "error[config]" in capsys.readouterr().err


def test_pretrain_outputs(run_dir):
    assert os.path.exists(run_dir / "checkpoint-final.ckpt")
    assert os.path.exists(run_dir / "checkpoint-epoch-1.ckpt")
    assert os.path.exists(run_dir / "metrics.jsonl")
    with open(run_dir / "metrics.jsonl") as fh:
        first = json.loads(fh.readline())
    assert {"step", "lr", "total", "wall_time"} <= set(first)


def test_evaluate_prints_json(data_dir, run_dir, capsys, tmp_path):
    out_file = tmp_path / "metrics.json"
    code = main(["evaluate", "--data", str(data_dir),
                 "--checkpoint", str(run_dir / "checkpoint-final.ckpt"),
                 "--out", str(out_file)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert "match_accuracy" in printed
    assert json.loads(out_file.read_text()) == printed


def test_dump_attention_cli(data_dir, run_dir, tmp_path):
    out_file = tmp_path / "attn.json"
    code = main(["dump-attention", "--data", str(data_dir),
                 "--checkpoint", str(run_dir / "checkpoint-final.ckpt"),
                 "--index", "0", "--out", str(out_file)])
    assert code == 0
    dump = json.loads(out_file.read_text())
    assert dump["groups"]
    for group in dump["groups"]:
        for head in group["heads"]:
            rows = np.asarray(head)
            assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-6


def test_finetune_qa_cli(data_dir, run_dir, tmp_path):
    out = tmp_path / "ft"
    code = main(["finetune", "--task", "qa", "--data", str(data_dir),
                 "--checkpoint", str(run_dir / "checkpoint-final.ckpt"),
                 "--lr", "1e-3", "--epochs", "1", "--batch-size", "16",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    assert os.path.exists(out / "checkpoint-final.ckpt")


def test_finetune_pairwise_from_scratch_cli(data_dir, tmp_path):
    out = tmp_path / "ftp"
    code = main(["finetune", "--task", "pairwise", "--data", str(data_dir),
                 "--from-scratch", "--lr", "1e-3", "--epochs", "1",
                 "--batch-size", "16", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert os.path.exists(out / "checkpoint-final.ckpt")


def test_finetune_without_checkpoint_is_config_error(data_dir, capsys):
    code = main(["finetune", "--task", "qa", "--data", str(data_dir),
                 "--out", "/tmp/nowhere"])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_missing_data_dir_is_data_error(capsys, tmp_path):
    code = main(["pretrain", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "error[data]" in capsys.readouterr().err


def test_bad_checkpoint_file_is_checkpoint_error(data_dir, capsys, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    code = main(["evaluate", "--data", str(data_dir), "--checkpoint", str(bad)])
    assert code == 4
    assert "error[checkpoint]" in capsys.readouterr().err


def test_bad_config_is_config_error(data_dir, capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": {"hidden_size": 63, "num_heads": 4}}))
    code = main(["pretrain", "--data", str(data_dir), "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_unknown_config_field_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad2.json"
    cfg.write_text(json.dumps({"model": {"hidden_dim": 64}}))
    code = main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(cfg)])
    assert code == 2
    assert "hidden_dim" in capsys.readouterr().err


def test_resume_flag(data_dir, run_dir, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "schedule": {"epochs": 2, "batch_size": 8, "peak_lr": 1e-3},
    }))
    out = tmp_path / "resumed"
    code = main(["pretrain", "--data", str(data_dir), "--config", str(cfg_path),
                 "--seed", "1", "--out", str(out),
                 "--resume", str(run_dir / "checkpoint-epoch-1.ckpt")])
    assert code == 0
    assert os.path.exists(out / "checkpoint-final.ckpt")


@pytest.mark.parametrize("cut", [
    pytest.param(lambda size: 10, id="header"),
    pytest.param(lambda size: 30, id="image-id"),
    pytest.param(lambda size: size // 2, id="block"),
])
def test_truncated_feature_store_is_data_error(data_dir, run_dir, tmp_path, capsys, cut):
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    raw = (bad / "features.bin").read_bytes()
    (bad / "features.bin").write_bytes(raw[:cut(len(raw))])
    code = main(["evaluate", "--data", str(bad),
                 "--checkpoint", str(run_dir / "checkpoint-final.ckpt")])
    assert code == 3
    assert "error[data]" in capsys.readouterr().err
