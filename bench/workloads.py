"""The benchmark's workloads: inputs made from the seed, and one timed repetition each.

The program is reached only through the functions its CLI uses:
``load_data_dir``, ``make_initial_checkpoint``, ``run_pretraining``,
``run_finetune_pairwise``, ``evaluate_checkpoint``, ``dump_attention`` and
``save_checkpoint``/``load_checkpoint``, after writing the data directory the
way ``crossmodal gen-data`` does.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass

from crossmodal.checkpoint import load_checkpoint, save_checkpoint
from crossmodal.config import FinetuneConfig, RunConfig, ScheduleConfig
from crossmodal.data import (
    DEFAULT_LABELS,
    Vocabulary,
    generate_pairwise_corpus,
    generate_synthetic_corpus,
    save_corpus,
    save_pairs,
)
from crossmodal.train import (
    CORPUS_FILE,
    FEATURES_FILE,
    LABELS_FILE,
    PAIRS_FILE,
    VOCAB_FILE,
    dump_attention,
    evaluate_checkpoint,
    load_data_dir,
    make_initial_checkpoint,
    run_finetune_pairwise,
    run_pretraining,
)


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's inputs; the corpus itself comes from the seed."""

    kind: str              # "pretrain" or "pairwise"
    batch: int             # training batch size
    train_images: int      # images in the train split
    dev_images: int        # images in the dev split, all scored by evaluate_checkpoint
    pairs: int = 0         # two-image statements (pairwise workload)
    epochs: int = 4
    lr: float = 1e-3


SPECS = {
    # the acceptance learnability schedule shape (4 epochs, batch 4, peak lr 1e-3,
    # QA from the second half) on a smaller corpus, with per-epoch checkpoints
    "pretrain-b4": Spec("pretrain", batch=4, train_images=12, dev_images=24),
    "pretrain-b32": Spec("pretrain", batch=32, train_images=32, dev_images=24),
    # score a large dev split, dump attention, then a short pairwise fine-tune:
    # one batch of 32 train pairs seen 16 times, so the loss falls on every seed
    "eval-pairwise": Spec("pairwise", batch=32, train_images=16, dev_images=48,
                          pairs=36, epochs=16, lr=1e-3),
}


def run_config(spec: Spec) -> RunConfig:
    cfg = RunConfig()
    cfg.schedule = ScheduleConfig(epochs=spec.epochs, batch_size=spec.batch, peak_lr=spec.lr,
                                  qa_start_fraction=0.5, checkpoint_every_epoch=True)
    cfg.finetune = FinetuneConfig(lr=spec.lr, batch_size=spec.batch, epochs=spec.epochs)
    return cfg.validate()


def write_data_dir(spec: Spec, seed: int, path: str) -> None:
    """The files ``crossmodal gen-data`` writes, for this spec's corpus."""
    n_images = spec.train_images + spec.dev_images
    # generate_synthetic_corpus takes ceil(n_images * dev_fraction) dev images
    dev_fraction = (spec.dev_images - 0.5) / n_images
    records, store = generate_synthetic_corpus(seed=seed, n_images=n_images,
                                               label_vocab=DEFAULT_LABELS,
                                               dev_fraction=dev_fraction)
    os.makedirs(path, exist_ok=True)
    save_corpus(records, os.path.join(path, CORPUS_FILE))
    store.save(os.path.join(path, FEATURES_FILE))
    Vocabulary.from_records([r for r in records if r.split == "train"]).save(
        os.path.join(path, VOCAB_FILE))
    with open(os.path.join(path, LABELS_FILE), "w", encoding="utf-8") as fh:
        json.dump({"labels": list(DEFAULT_LABELS)}, fh)
    if spec.pairs:
        pairs = generate_pairwise_corpus(store, DEFAULT_LABELS, spec.pairs, seed=seed + 1)
        save_pairs(pairs, os.path.join(path, PAIRS_FILE))


@dataclass
class Rep:
    """What one repetition produced and how long its timed calls took."""

    train_s: float
    train_rows: int
    eval_s: float
    eval_rows: int
    history: list
    eval_metrics: dict
    checkpoint: str           # final checkpoint of the training call
    dump: dict | None = None  # attention dump (pairwise repetitions)


class Workload:
    """Set-up once, then any number of identical repetitions with one seed."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.spec = SPECS[name]
        self.seed = seed
        self.workdir = workdir
        self.cfg = run_config(self.spec)
        data_dir = os.path.join(workdir, "data")
        write_data_dir(self.spec, seed, data_dir)
        self.bundle = load_data_dir(data_dir)
        self.initial = make_initial_checkpoint(self.cfg, self.bundle, seed=seed + 2)
        self.initial_path = os.path.join(workdir, "initial.ckpt")
        if self.spec.kind == "pairwise":
            save_checkpoint(self.initial_path, self.initial)
        self.dev = self.bundle.split("dev") or self.bundle.split("train")
        self.n_reps = 0

    @property
    def dump_index(self) -> int:
        return self.seed % len(self.dev)

    def _fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _evaluate(self, ckpt) -> tuple[dict, float]:
        t0 = time.perf_counter()
        metrics = evaluate_checkpoint(ckpt, self.bundle, seed=self.seed + 3)
        return metrics, time.perf_counter() - t0

    def rep(self) -> Rep:
        """One repetition; the previous one's output directory is removed first."""
        out = self._fresh_dir(f"rep{self.n_reps % 2}")
        self.n_reps += 1
        seed = self.seed + 4
        if self.spec.kind == "pretrain":
            t0 = time.perf_counter()
            result = run_pretraining(self.bundle, self.cfg, seed=seed, out_dir=out)
            train_s = time.perf_counter() - t0
            rows = len(self.bundle.split("train")) * self.spec.epochs
            metrics, eval_s = self._evaluate(load_checkpoint(result.final_checkpoint))
            dump = None
        else:
            ckpt = load_checkpoint(self.initial_path)
            metrics, eval_s = self._evaluate(ckpt)
            dump = dump_attention(ckpt, self.bundle, self.dump_index,
                                  out + "-attention.json")
            t0 = time.perf_counter()
            result = run_finetune_pairwise(ckpt, self.bundle, self.cfg, seed=seed, out_dir=out)
            train_s = time.perf_counter() - t0
            rows = sum(p.split == "train" for p in self.bundle.pairs) * self.spec.epochs
        eval_rows = metrics["match_n"] + len(self.dev) + metrics["qa_n"]
        return Rep(train_s, rows, eval_s, eval_rows, result.history, metrics,
                   result.final_checkpoint, dump)
