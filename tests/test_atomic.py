"""Every output file is written atomically: a write that fails part way leaves
the previous file byte-identical and no temporary file beside it."""

import errno
import json
import os
from types import SimpleNamespace

import pytest

from crossmodal import atomic
from crossmodal.checkpoint import save_checkpoint
from crossmodal.cli import main
from crossmodal.config import RunConfig, save_run_config
from crossmodal.data import save_corpus, save_pairs
from crossmodal.train import (
    _drop_metrics_from,
    dump_attention,
    load_data_dir,
    make_initial_checkpoint,
)


@pytest.fixture(scope="module")
def src(tmp_path_factory):
    """A gen-data directory with pairs, its bundle, and its initial checkpoint, saved."""
    data = tmp_path_factory.mktemp("data")
    assert main(["gen-data", "--out", str(data), "--images", "8", "--pairs", "8",
                 "--seed", "0"]) == 0
    bundle = load_data_dir(data)
    ckpt = make_initial_checkpoint(RunConfig(), bundle, seed=0)
    save_checkpoint(data / "initial.ckpt", ckpt)
    return SimpleNamespace(data=data, bundle=bundle, ckpt=ckpt)


def _gen_data(target, src):
    # the CLI reports the failed write as an exit code
    assert main(["gen-data", "--out", str(target.parent), "--images", "4", "--pairs", "0"]) != 0


def _evaluate(target, src):
    assert main(["evaluate", "--data", str(src.data), "--checkpoint",
                 str(src.data / "initial.ckpt"), "--out", str(target)]) != 0


def _drop_metrics(target, src):
    _drop_metrics_from(target, 1)


# writer -> (file name, write(target, src)); each write fails part way
WRITERS = {
    "Vocabulary.save": ("vocab.json", lambda t, src: src.bundle.vocab.save(t)),
    "save_corpus": ("corpus.jsonl", lambda t, src: save_corpus(src.bundle.records, t)),
    "save_pairs": ("pairs.jsonl", lambda t, src: save_pairs(src.bundle.pairs, t)),
    "FeatureStore.save": ("features.bin", lambda t, src: src.bundle.store.save(t)),
    "save_run_config": ("config.json", lambda t, src: save_run_config(RunConfig(), t)),
    "save_checkpoint": ("model.ckpt", lambda t, src: save_checkpoint(t, src.ckpt)),
    "dump_attention": ("attention.json",
                       lambda t, src: dump_attention(src.ckpt, src.bundle, 0, t)),
    "_drop_metrics_from": ("metrics.jsonl", _drop_metrics),
    "gen-data labels.json": ("labels.json", _gen_data),
    "evaluate --out": ("evaluate.json", _evaluate),
}
CLI_WRITERS = ("gen-data labels.json", "evaluate --out")


class _FailingFile:
    """A file whose first write stores half its data, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_previous_file_and_leaves_no_temp_file(writer, src, tmp_path,
                                                                   monkeypatch):
    name, write = WRITERS[writer]
    target = tmp_path / "out" / name
    target.parent.mkdir()
    # valid metrics lines, since _drop_metrics_from reads the file before writing
    target.write_text("".join(json.dumps({"step": step, "loss": 1.0}) + "\n"
                              for step in range(3)))
    before = target.read_bytes()
    real_open = open

    def failing_open(file, mode="r", **kwargs):
        fh = real_open(file, mode, **kwargs)
        return _FailingFile(fh) if os.path.basename(file).startswith(name + ".tmp") else fh

    monkeypatch.setattr(atomic, "open", failing_open, raising=False)
    if writer in CLI_WRITERS:
        write(target, src)
    else:
        with pytest.raises(OSError, match="No space left"):
            write(target, src)
    assert target.read_bytes() == before
    assert not [f for f in os.listdir(target.parent) if ".tmp" in f]
