"""Command-line surface: the full pipeline end to end plus error categories."""

import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from crossmodal.checkpoint import load_checkpoint, save_checkpoint
from crossmodal.cli import main
from crossmodal.data import FeatureStore, load_corpus

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _reject_constant(name):
    """``json.loads``'s ``parse_constant`` for strict JSON: NaN and Infinity are errors."""
    raise ValueError(f"not strict JSON: {name}")


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


def test_gen_data_with_more_than_twelve_objects_writes_true_counts(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"model": {"objects_per_image": 20}}))
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out), "--images", "12",
                 "--pairs", "8", "--seed", "0"]) == 0
    store = FeatureStore.load(out / "features.bin")
    labels = json.loads((out / "labels.json").read_text())["labels"]
    words = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
             "ten", "eleven", "twelve")
    counts = []
    for r in load_corpus(out / "corpus.jsonl"):
        if r.sentence.startswith("how many"):
            count = int((store.get(r.image_id)[2] == labels.index(r.sentence.split()[2])).sum())
            assert r.answer == (words[count] if count <= 12 else str(count))
            counts.append(count)
    assert min(counts) <= 12 < max(counts)


@pytest.mark.parametrize("fraction", ["1.5", "-1"])
def test_gen_data_dev_fraction_outside_unit_interval_is_config_error(fraction, tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--images", "8", "--dev-fraction", fraction]) == 2
    assert "error[config]" in capsys.readouterr().err
    assert not out.exists()


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


def test_negative_clip_norm_is_config_error(data_dir, capsys, tmp_path):
    cfg = tmp_path / "clip.json"
    cfg.write_text(json.dumps({"schedule": {"clip_norm": -5.0}}))
    code = main(["pretrain", "--data", str(data_dir), "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "clip_norm" in capsys.readouterr().err


def test_gen_data_with_one_object_per_image_names_the_field(tmp_path, capsys):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({"model": {"objects_per_image": 1}}))
    code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d"),
                 "--images", "8"])
    assert code == 2
    assert "error[config]: objects_per_image" in capsys.readouterr().err


@pytest.mark.parametrize("line", ['{"image_id": "synth-000000", "sentence": "a cat", '
                                  '"is_question": "no", "answer": null, "split": "train"}',
                                  "[1, 2]"])
def test_stats_on_mistyped_corpus_is_data_error(line, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(line + "\n")
    assert main(["stats", "--corpus", str(corpus)]) == 3
    assert f"error[data]: {corpus} line 1" in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"split": "test"}, "unknown split tag 'test'"),
    ({"answer": "cat"}, "answer on a non-question"),
])
def test_stats_on_invalid_corpus_record_is_data_error(change, message, tmp_path, capsys):
    row = {"image_id": "synth-000000", "sentence": "a cat", "is_question": False,
           "answer": None, "split": "train"}
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(row) + "\n" + json.dumps({**row, **change}) + "\n")
    assert main(["stats", "--corpus", str(corpus)]) == 3
    err = capsys.readouterr().err
    assert f"error[data]: {corpus} line 2: " in err and message in err


def test_stats_on_corpus_line_that_is_not_json_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"image_id": "synth-000000", "sentence": \n')
    assert main(["stats", "--corpus", str(corpus)]) == 3
    assert f"error[data]: {corpus} line 1: not JSON" in capsys.readouterr().err


def test_truncated_config_is_config_error(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cut.json"
    text = json.dumps({"schedule": {"epochs": 2, "batch_size": 8}})
    cfg.write_text(text[:len(text) // 2])
    code = main(["pretrain", "--data", str(data_dir), "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"error[config]: config {cfg}: " in capsys.readouterr().err


@pytest.mark.parametrize("name", ["corpus.jsonl", "pairs.jsonl"])
def test_data_file_line_that_is_not_utf8_is_data_error(name, data_dir, tmp_path, capsys):
    copy = tmp_path / "data"
    shutil.copytree(data_dir, copy)
    raw = (copy / name).read_bytes()
    at = raw.index(b"\n") + 3  # inside line 2
    (copy / name).write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    code = main(["finetune", "--task", "pairwise", "--data", str(copy), "--from-scratch",
                 "--epochs", "1", "--out", str(tmp_path / "ft")])
    assert code == 3
    assert f"error[data]: {copy / name} line 2: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("offset", [11, 15], ids=["m", "feat_dim"])
def test_feature_store_with_a_corrupt_extent_is_data_error(offset, data_dir, tmp_path, capsys):
    copy = tmp_path / "data"
    shutil.copytree(data_dir, copy)
    raw = bytearray((copy / "features.bin").read_bytes())
    raw[offset] ^= 0xFF  # the high byte of a u32 extent
    (copy / "features.bin").write_bytes(bytes(raw))
    code = main(["pretrain", "--data", str(copy), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "error[data]: unexpected end of feature store file" in capsys.readouterr().err


def test_pairs_file_with_unknown_split_is_data_error(data_dir, tmp_path, capsys):
    copy = tmp_path / "data"
    shutil.copytree(data_dir, copy)
    lines = (copy / "pairs.jsonl").read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "split": "test"})
    (copy / "pairs.jsonl").write_text("\n".join(lines) + "\n")
    code = main(["finetune", "--task", "pairwise", "--data", str(copy), "--from-scratch",
                 "--epochs", "1", "--out", str(tmp_path / "ft")])
    assert code == 3
    assert "line 2: unknown split tag 'test'" in capsys.readouterr().err


def test_finetune_config_reuse_qa_head_is_kept_without_the_flag(data_dir, run_dir, tmp_path):
    """``"finetune": {"reuse_qa_head": true}`` in --config trains the checkpoint's answer head."""
    cfg_path = tmp_path / "ft.json"
    cfg_path.write_text(json.dumps({"finetune": {"reuse_qa_head": True}}))
    pretrained = load_checkpoint(run_dir / "checkpoint-final.ckpt")
    heads = {}
    for name, extra in (("config", ["--config", str(cfg_path)]), ("flag", ["--reuse-qa-head"]),
                        ("fresh", [])):
        out = tmp_path / name
        code = main(["finetune", "--task", "qa", "--data", str(data_dir),
                     "--checkpoint", str(run_dir / "checkpoint-final.ckpt"),
                     "--epochs", "1", "--batch-size", "16", "--seed", "2", "--out", str(out),
                     *extra])
        assert code == 0
        ckpt = load_checkpoint(out / "checkpoint-final.ckpt")
        heads[name] = (ckpt.extra["answers"], ckpt.params["head.qa.w"].data)
    assert heads["config"][0] == pretrained.extra["answers"]
    assert np.array_equal(heads["config"][1], heads["flag"][1])
    assert not np.array_equal(heads["fresh"][1], heads["config"][1])


def test_reused_answer_table_without_a_train_answer_is_config_error(data_dir, run_dir, tmp_path,
                                                                    capsys):
    # every stored answer renamed: no train question keeps a target in the reused head
    ckpt = load_checkpoint(run_dir / "checkpoint-final.ckpt")
    ckpt.extra["answers"] = [f"renamed-{answer}" for answer in ckpt.extra["answers"]]
    save_checkpoint(tmp_path / "renamed.ckpt", ckpt)
    out = tmp_path / "finetune"
    code = main(["finetune", "--task", "qa", "--reuse-qa-head", "--data", str(data_dir),
                 "--checkpoint", str(tmp_path / "renamed.ckpt"), "--epochs", "1",
                 "--seed", "2", "--out", str(out)])
    assert code == 2
    assert "holds no answer of a train question" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_data_dir_without_labels_file_is_data_error(data_dir, run_dir, tmp_path, capsys):
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    os.remove(bad / "labels.json")
    code = main(["evaluate", "--data", str(bad),
                 "--checkpoint", str(run_dir / "checkpoint-final.ckpt")])
    assert code == 3
    assert "labels.json" in capsys.readouterr().err


@pytest.fixture(scope="module")
def other_vocab_dir(tmp_path_factory):
    """A data directory whose vocabulary is smaller than ``data_dir``'s."""
    path = tmp_path_factory.mktemp("other")
    assert main(["gen-data", "--out", str(path), "--images", "12", "--pairs", "12",
                 "--labels", "red,green,blue", "--seed", "0"]) == 0
    return path


@pytest.mark.parametrize("command", [
    ["evaluate"],
    ["finetune", "--task", "qa", "--epochs", "1"],
    ["finetune", "--task", "pairwise", "--epochs", "1"],
    ["dump-attention"],
])
def test_data_dir_with_another_vocabulary_is_config_error(command, other_vocab_dir, run_dir,
                                                          tmp_path, capsys):
    out = tmp_path / "out"
    code = main(command + ["--data", str(other_vocab_dir),
                           "--checkpoint", str(run_dir / "checkpoint-final.ckpt"),
                           "--out", str(out)])
    assert code == 2
    assert "error[config]: data directory has vocab_size" in capsys.readouterr().err
    assert not out.exists()


def _checkpoint_offsets(raw: bytes) -> dict[str, int]:
    """Offsets of one byte inside the header JSON, the rng JSON and the first tensor name."""
    (hdr_len,) = struct.unpack_from("<I", raw, 8)
    rng_at = 12 + hdr_len + 4
    (rng_len,) = struct.unpack_from("<I", raw, rng_at - 4)
    name_at = rng_at + rng_len + 4 + 2
    return {"header": 12 + hdr_len // 2, "rng": rng_at + rng_len // 2, "name": name_at + 1}


@pytest.mark.parametrize("region", ["header", "rng", "name"])
def test_flipped_checkpoint_byte_is_checkpoint_error(region, data_dir, run_dir, tmp_path,
                                                     capsys):
    raw = bytearray((run_dir / "checkpoint-final.ckpt").read_bytes())
    raw[_checkpoint_offsets(bytes(raw))[region]] ^= 0xFF
    bad = tmp_path / "flipped.ckpt"
    bad.write_bytes(bytes(raw))
    code = main(["evaluate", "--data", str(data_dir), "--checkpoint", str(bad)])
    assert code == 4
    assert "error[checkpoint]" in capsys.readouterr().err


def test_checkpoint_with_a_corrupt_header_length_is_checkpoint_error_without_allocating_it(
        data_dir, run_dir, tmp_path):
    # under a 1 GB address-space cap a 4 GB read would fail as MemoryError
    raw = bytearray((run_dir / "checkpoint-final.ckpt").read_bytes())
    struct.pack_into("<I", raw, 8, 0xFFFFFF00)
    bad = tmp_path / "long-header.ckpt"
    bad.write_bytes(bytes(raw))
    code = ("import resource, sys, crossmodal.cli as c; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            f"sys.exit(c.main(['evaluate', '--data', {str(data_dir)!r}, "
            f"'--checkpoint', {str(bad)!r}]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 4, done.stderr
    assert "error[checkpoint]: " in done.stderr and "unexpected end of checkpoint file" in done.stderr


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


@pytest.mark.parametrize("name, text", [
    ("vocab.json", b'{"tokens": ["a\xff"]}'),
    ("vocab.json", b'{"tokens": ["a", "a"]}'),
    ("labels.json", b'{"labels": 3}'),
])
def test_unreadable_vocab_or_labels_file_is_data_error(name, text, data_dir, run_dir, tmp_path,
                                                       capsys):
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    (bad / name).write_bytes(text)
    code = main(["evaluate", "--data", str(bad),
                 "--checkpoint", str(run_dir / "checkpoint-final.ckpt")])
    assert code == 3
    assert f"error[data]: {bad / name}: " in capsys.readouterr().err


@pytest.fixture(scope="module")
def one_image_dev(tmp_path_factory):
    """A 10-image corpus, whose dev split holds one image, and a 1-epoch pre-training run."""
    data = tmp_path_factory.mktemp("data10")
    assert main(["gen-data", "--out", str(data), "--images", "10", "--pairs", "0",
                 "--seed", "0"]) == 0
    run = tmp_path_factory.mktemp("run10")
    cfg_path = run / "config.json"
    cfg_path.write_text(json.dumps({"schedule": {"epochs": 1, "batch_size": 8}}))
    assert main(["pretrain", "--data", str(data), "--config", str(cfg_path),
                 "--seed", "1", "--out", str(run)]) == 0
    return data, run


def test_evaluate_skips_matching_on_one_image_dev_split(one_image_dev, capsys):
    data, run = one_image_dev
    dev_images = {json.loads(line)["image_id"]
                  for line in (data / "corpus.jsonl").read_text().splitlines()
                  if json.loads(line)["split"] == "dev"}
    assert len(dev_images) == 1
    code = main(["evaluate", "--data", str(data),
                 "--checkpoint", str(run / "checkpoint-final.ckpt")])
    assert code == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert printed["match_n"] == 0
    assert printed["match_accuracy"] is None
    assert printed["masked_label_n"] > 0
    assert printed["qa_n"] > 0


def test_resume_from_finetuned_checkpoint_is_config_error(one_image_dev, tmp_path, capsys):
    data, run = one_image_dev
    ft = tmp_path / "ft"
    assert main(["finetune", "--task", "qa", "--data", str(data),
                 "--checkpoint", str(run / "checkpoint-final.ckpt"),
                 "--epochs", "1", "--seed", "2", "--out", str(ft)]) == 0
    capsys.readouterr()
    out = tmp_path / "resumed"
    code = main(["pretrain", "--data", str(data), "--config", str(run / "config.json"),
                 "--seed", "1", "--out", str(out),
                 "--resume", str(ft / "checkpoint-final.ckpt")])
    assert code == 2
    assert "not a pre-training checkpoint" in capsys.readouterr().err
    assert not os.path.exists(out / "metrics.jsonl")


@pytest.mark.parametrize("schedule, field", [
    ({"epochs": 2, "batch_size": 8, "peak_lr": 1e-2}, "peak_lr"),
    ({"epochs": 2, "batch_size": 8, "peak_lr": 1e-3, "warmup_fraction": 0.1}, "warmup_fraction"),
    ({"epochs": 3, "batch_size": 8, "peak_lr": 1e-3}, "total_steps"),
    ({"epochs": 2, "batch_size": 4, "peak_lr": 1e-3}, "total_steps"),
    # a checkpoint of an older run whose QA phase had its own peak rate (see below)
    ({"epochs": 2, "batch_size": 8, "peak_lr": 1e-3}, "phase2_lr"),
    ({"epochs": 2, "batch_size": 8, "peak_lr": 1e-3, "qa_start_fraction": 0.0},
     "qa_start_fraction"),
    ({"epochs": 2, "batch_size": 8, "peak_lr": 1e-3, "clip_norm": None}, "clip_norm"),
    ({"epochs": 2, "batch_size": 8, "peak_lr": 1e-3, "gate_object_tasks": True},
     "gate_object_tasks"),
])
def test_resume_under_another_schedule_is_config_error(schedule, field, data_dir, run_dir,
                                                       tmp_path, capsys):
    resume = run_dir / "checkpoint-epoch-1.ckpt"
    if field == "phase2_lr":
        ckpt = load_checkpoint(resume)
        ckpt.extra["phase2_lr"] = 0.01
        resume = tmp_path / "phase2.ckpt"
        save_checkpoint(resume, ckpt)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"schedule": schedule}))
    out = tmp_path / "resumed"
    code = main(["pretrain", "--data", str(data_dir), "--config", str(cfg_path),
                 "--seed", "1", "--out", str(out), "--resume", str(resume)])
    assert code == 2
    assert f"was trained with {field} " in capsys.readouterr().err
    assert not os.path.exists(out / "metrics.jsonl")


def test_resume_from_a_checkpoint_storing_a_null_phase2_lr(data_dir, run_dir, tmp_path):
    # runs before the QA-phase peak rate went stored "phase2_lr": null
    ckpt = load_checkpoint(run_dir / "checkpoint-epoch-1.ckpt")
    ckpt.extra["phase2_lr"] = None
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, ckpt)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"schedule": {"epochs": 2, "batch_size": 8, "peak_lr": 1e-3}}))
    out = tmp_path / "resumed"
    assert main(["pretrain", "--data", str(data_dir), "--config", str(cfg_path),
                 "--seed", "1", "--out", str(out), "--resume", str(old)]) == 0
    resumed = load_checkpoint(out / "checkpoint-final.ckpt").params
    for name, p in load_checkpoint(run_dir / "checkpoint-final.ckpt").params.items():
        assert np.array_equal(resumed[name].data, p.data), name


def test_config_naming_phase2_lr_is_config_error(data_dir, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"schedule": {"phase2_lr": 1e-2}}))
    code = main(["pretrain", "--data", str(data_dir), "--config", str(cfg_path),
                 "--seed", "1", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "unknown ScheduleConfig fields: ['phase2_lr']" in capsys.readouterr().err


@pytest.mark.parametrize("section, field, value", [
    ("masking", "word_mask_prob", 0.5),
    ("masking", "object_mask_prob", 0.5),
    ("masking", "mismatch_prob", 0.25),
    ("model", "dropout", 0.2),
    ("model", "hidden_size", 32),
])
def test_resume_under_another_masking_or_model_is_config_error(section, field, value, data_dir,
                                                               run_dir, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"schedule": {"epochs": 2, "batch_size": 8, "peak_lr": 1e-3},
                                    section: {field: value}}))
    out = tmp_path / "resumed"
    code = main(["pretrain", "--data", str(data_dir), "--config", str(cfg_path),
                 "--seed", "1", "--out", str(out),
                 "--resume", str(run_dir / "checkpoint-epoch-1.ckpt")])
    assert code == 2
    assert f"was trained with {field} " in capsys.readouterr().err
    assert not os.path.exists(out / "metrics.jsonl")


def test_resume_from_a_checkpoint_without_the_run_keys_checks_only_the_rest(data_dir, run_dir,
                                                                            tmp_path):
    # a checkpoint written before the keys were stored: another qa_start_fraction resumes
    ckpt = load_checkpoint(run_dir / "checkpoint-epoch-1.ckpt")
    for key in ("qa_start_fraction", "clip_norm", "gate_object_tasks",
                "word_mask_prob", "object_mask_prob", "mismatch_prob"):
        del ckpt.extra[key]
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, ckpt)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"schedule": {"epochs": 2, "batch_size": 8, "peak_lr": 1e-3,
                                                 "qa_start_fraction": 0.0}}))
    out = tmp_path / "resumed"
    assert main(["pretrain", "--data", str(data_dir), "--config", str(cfg_path),
                 "--seed", "1", "--out", str(out), "--resume", str(old)]) == 0
    assert os.path.exists(out / "checkpoint-final.ckpt")


def test_resume_on_another_answer_table_is_config_error(data_dir, run_dir, tmp_path, capsys):
    # the same number of answers, one of them renamed
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    answer = load_checkpoint(run_dir / "checkpoint-epoch-1.ckpt").extra["answers"][0]
    lines = [json.loads(line) for line in (bad / "corpus.jsonl").read_text().splitlines()]
    for line in lines:
        if line["answer"] == answer:
            line["answer"] = "renamed"
    (bad / "corpus.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"schedule": {"epochs": 2, "batch_size": 8, "peak_lr": 1e-3}}))
    out = tmp_path / "resumed"
    code = main(["pretrain", "--data", str(bad), "--config", str(cfg_path),
                 "--seed", "1", "--out", str(out),
                 "--resume", str(run_dir / "checkpoint-epoch-1.ckpt")])
    assert code == 2
    assert "was trained with answers " in capsys.readouterr().err
    assert not os.path.exists(out / "metrics.jsonl")


def test_resume_on_a_resized_answer_table_is_config_error(data_dir, run_dir, tmp_path, capsys):
    # fewer answers, so the QA head's shape differs too: the table is named, not the tensor
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"schedule": {"epochs": 2, "batch_size": 8, "peak_lr": 1e-3,
                                                 "answer_coverage": 0.5}}))
    out = tmp_path / "resumed"
    code = main(["pretrain", "--data", str(data_dir), "--config", str(cfg_path),
                 "--seed", "1", "--out", str(out),
                 "--resume", str(run_dir / "checkpoint-epoch-1.ckpt")])
    assert code == 2
    assert "was trained with answers " in capsys.readouterr().err
    assert not os.path.exists(out / "metrics.jsonl")


def _with_labels(data_dir, path, labels):
    shutil.copytree(data_dir, path)
    (path / "labels.json").write_text(json.dumps({"labels": labels}))
    return path


@pytest.mark.parametrize("command", ["pretrain", "evaluate", "dump-attention"])
def test_detected_label_outside_labels_file_is_data_error(command, data_dir, run_dir, tmp_path,
                                                          capsys):
    names = json.loads((data_dir / "labels.json").read_text())["labels"]
    bad = _with_labels(data_dir, tmp_path / "data", names[:8])
    argv = [command, "--data", str(bad), "--out", str(tmp_path / "out")]
    if command != "pretrain":
        argv += ["--checkpoint", str(run_dir / "checkpoint-final.ckpt")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "error[data]" in err and "outside [0, 8) of labels.json" in err


@pytest.mark.parametrize("command", [
    ["evaluate"],
    ["finetune", "--task", "qa", "--epochs", "1"],
    ["dump-attention"],
])
def test_data_dir_with_more_label_names_is_config_error(command, data_dir, run_dir, tmp_path,
                                                        capsys):
    names = json.loads((data_dir / "labels.json").read_text())["labels"]
    more = _with_labels(data_dir, tmp_path / "data", names + ["kite"])
    out = tmp_path / "out"
    code = main(command + ["--data", str(more),
                           "--checkpoint", str(run_dir / "checkpoint-final.ckpt"),
                           "--out", str(out)])
    assert code == 2
    assert "error[config]: data directory has num_labels 17, the model has 16" in \
        capsys.readouterr().err
    assert not out.exists()
