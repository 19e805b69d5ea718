"""Paired timing of two checkouts' training steps and eval forwards in one process.

Usage:

    python3 tools/ab_steps.py A B [--workload W] [--pairs N]

Imports the program from checkout A's ``src/`` as the package
``crossmodal_a`` and from checkout B's as ``crossmodal_b``, builds the same
inputs for each (the desk model on a synthetic corpus, as
``tools/step_memory.py`` does), then times N pairs of each workload,
alternating which side runs first. A sample is the ``time.process_time`` of
a few consecutive runs of the workload:

- ``pretrain-b4``, ``pretrain-b32``: a pre-training step at that batch size
  (zero the gradients, record the losses on a tape, back-propagate, clip, take
  an Adam step), the loop body of ``train._fit``;
- ``pairwise-b32``: a pairwise fine-tuning step, two encoder passes per pair;
- ``eval-b32``: an eval-mode ``forward_batch`` of 32 rows and the match head;
- ``evaluate``: a whole ``evaluate_checkpoint`` (its matching, masked-label
  and QA passes) of a dev split shaped like the benchmark's
  ``eval-pairwise`` one on seed 1: a 64-image corpus from seed 1 whose last
  48 images (240 rows) are dev, an initial checkpoint from seed 3 and the
  passes drawn from seed 4. It is built here the way ``bench/workloads.py``
  builds it, so the ratio sizes that workload's evaluation.

For each workload it prints both sides' median sample time, the median of
the per-pair ratios A/B (above 1 means B is faster) and the number of pairs
B won. Timing both sides in one process keeps the drift between separate
processes out of the ratio, so it sizes a change quickly; a claim about
speed still rests on ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time

WORKLOADS = ("pretrain-b4", "pretrain-b32", "pairwise-b32", "eval-b32", "evaluate")
RUNS_PER_SAMPLE = {"pretrain-b4": 8, "pretrain-b32": 2, "pairwise-b32": 2, "eval-b32": 8,
                   "evaluate": 1}
WARMUP = 2


def import_checkout(checkout: str, name: str):
    """The package in ``checkout``'s ``src/crossmodal``, imported as ``name``."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "crossmodal")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    if spec is None:
        sys.exit(f"ab_steps: no package at {pkg}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def workloads(pkg_name: str) -> dict:
    """workload name -> a function that runs it once, on inputs made from fixed seeds."""
    import numpy as np

    config, data, encoders, heads, optim, params_mod, tensor, train = (
        importlib.import_module(f"{pkg_name}.{name}") for name in
        ("config", "data", "encoders", "heads", "optim", "params", "tensor", "train"))

    records, store = data.generate_synthetic_corpus(seed=0, n_images=40,
                                                    label_vocab=data.DEFAULT_LABELS)
    rows = [r for r in records if r.split == "train"]
    vocab = data.Vocabulary.from_records(rows)
    bundle = train.DataBundle(records, store, vocab, list(data.DEFAULT_LABELS))
    run_cfg = config.RunConfig()
    ckpt = train.make_initial_checkpoint(run_cfg, bundle, seed=0)
    cfg = ckpt.config
    maker = data.BatchMaker(rows, store, vocab, data.AnswerTable(ckpt.extra["answers"]),
                            run_cfg.masking, cfg)
    rng = np.random.default_rng(2)

    def training_step(params, step_loss):
        opt = optim.OptimizerState.init(params, 1e-3, 0.0, 10 ** 6)

        def run():
            tensor.zero_grads(params)
            with tensor.Tape():
                loss = step_loss(params)
                tensor.backward(loss)
            optim.clip_gradients(params, 5.0)
            optim.adam_step(params, {n: p.grad for n, p in params.items()}, opt, 1e-4)
        return run

    def pretrain_loss(batch):
        chunk = rows[:batch]

        def step_loss(params):
            packed = data.collate(maker.make_batch(chunk, rng), vocab)
            out = encoders.forward_batch(packed, params, cfg,
                                         encoders.Runtime(training=True, rng=rng))
            return heads.pretrain_losses(packed, out, params, qa_enabled=True).total
        return step_loss

    pairs = data.generate_pairwise_corpus(store, data.DEFAULT_LABELS, 32, seed=1)
    labels = np.array([int(p.label) for p in pairs], dtype=np.int64)
    sides = [data.collate(data.CrossModalBatch(
        [data.plain_row(getattr(p, side), p.sentence, store, vocab, cfg) for p in pairs]), vocab)
        for side in ("image_id_0", "image_id_1")]

    def pairwise_loss(params):
        runtime = encoders.Runtime(training=True, rng=rng)
        cls = [encoders.forward_batch(packed, params, cfg, runtime).cls for packed in sides]
        return heads.pairwise_bce(heads.pairwise_logit(*cls, params, cfg.ln_eps), labels)

    eval_packed = data.collate(maker.make_batch(rows[:32], np.random.default_rng(3)), vocab)

    # 16 train and 48 dev images; the corpus takes ceil(64 * fraction) dev images
    dev_records, dev_store = data.generate_synthetic_corpus(
        seed=1, n_images=64, label_vocab=data.DEFAULT_LABELS, dev_fraction=47.5 / 64)
    dev_bundle = train.DataBundle(
        dev_records, dev_store,
        data.Vocabulary.from_records([r for r in dev_records if r.split == "train"]),
        list(data.DEFAULT_LABELS))
    dev_ckpt = train.make_initial_checkpoint(run_cfg, dev_bundle, seed=3)

    def eval_forward():
        out = encoders.forward_batch(eval_packed, ckpt.params, cfg)
        heads.head_logits(out.cls, ckpt.params, "head.match")

    def fresh(extra=None):
        copy = {n: tensor.Tensor(p.data.copy(), requires_grad=True) for n, p in ckpt.params.items()}
        return {**copy, **(extra or {})}

    pair_head = params_mod.init_head_params(cfg, np.random.default_rng(1), params_mod.PAIRWISE_HEAD)
    return {
        "pretrain-b4": training_step(fresh(), pretrain_loss(4)),
        "pretrain-b32": training_step(fresh(), pretrain_loss(32)),
        "pairwise-b32": training_step(fresh(pair_head), pairwise_loss),
        "eval-b32": eval_forward,
        "evaluate": lambda: train.evaluate_checkpoint(dev_ckpt, dev_bundle, seed=4),
    }


def sample(run, runs: int) -> float:
    start = time.process_time()
    for _ in range(runs):
        run()
    return time.process_time() - start


def compare(name: str, run_a, run_b, pairs: int) -> str:
    runs = RUNS_PER_SAMPLE[name]
    for _ in range(WARMUP):
        sample(run_a, runs)
        sample(run_b, runs)
    times_a, times_b = [], []
    for i in range(pairs):
        if i % 2 == 0:
            times_a.append(sample(run_a, runs))
            times_b.append(sample(run_b, runs))
        else:
            times_b.append(sample(run_b, runs))
            times_a.append(sample(run_a, runs))
    ratios = [a / b for a, b in zip(times_a, times_b)]
    wins = sum(b < a for a, b in zip(times_a, times_b))
    ms_a, ms_b = (statistics.median(t) * 1e3 / runs for t in (times_a, times_b))
    return f"{name:<14}{ms_a:>10.2f}{ms_b:>10.2f}{statistics.median(ratios):>9.3f}{wins:>6}/{pairs}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Paired in-process timing of two checkouts' steps and eval forwards.")
    parser.add_argument("a", help="checkout A (the base)")
    parser.add_argument("b", help="checkout B (the change)")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="time only this workload (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=40, help="pairs per workload (default 40)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    # one BLAS thread, as bench/run.py pins it, before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import_checkout(args.a, "crossmodal_a")
    import_checkout(args.b, "crossmodal_b")
    side_a, side_b = workloads("crossmodal_a"), workloads("crossmodal_b")
    print(f"{'workload':<14}{'A ms':>10}{'B ms':>10}{'A/B':>9}{'B won':>10}")
    for name in args.workload or WORKLOADS:
        print(compare(name, side_a[name], side_b[name], args.pairs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
