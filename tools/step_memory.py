"""Memory per training step: page faults, and traced bytes around the backward sweep.

Usage:

    python3 tools/step_memory.py [CHECKOUT]

Imports the program from CHECKOUT's ``src/`` (default: the checkout this
script sits in) and runs three training steps of the desk model on a
synthetic corpus: a pre-training step at batch 4, one at batch 32, and a
pairwise fine-tuning step at batch 32 (two encoder passes per pair). Each
step is the loop body of ``train._fit``: zero the gradients, record the
loss on a tape, back-propagate, clip and take an Adam step. For each it
prints three numbers:

- ``faults``: the median minor page faults per step, from
  ``resource.getrusage`` on this process, over 20 steps after 3 warm-up
  steps (this depends on the C allocator, so compare on one machine);
- ``start``: the ``tracemalloc`` bytes allocated since ``zero_grads`` when
  ``backward`` begins, which is what the tape holds;
- ``peak``: the most ``tracemalloc`` bytes held during ``backward``.

Run it on two checkouts and compare the lines.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import tracemalloc

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARMUP, STEPS = 3, 20


def _import(checkout: str):
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    import crossmodal
    if not os.path.abspath(crossmodal.__file__).startswith(src + os.sep):
        sys.exit(f"step_memory: crossmodal imported from {crossmodal.__file__}, not from {src}")


def _workloads():
    """name -> (params, step_loss(rng)) for the three measured steps."""
    import numpy as np

    from crossmodal.config import RunConfig
    from crossmodal.data import (DEFAULT_LABELS, AnswerTable, BatchMaker, CrossModalBatch,
                                 Vocabulary, collate, generate_pairwise_corpus,
                                 generate_synthetic_corpus, plain_row)
    from crossmodal.encoders import Runtime, forward_batch
    from crossmodal.heads import pairwise_bce, pairwise_logit, pretrain_losses
    from crossmodal.params import PAIRWISE_HEAD, init_head_params
    from crossmodal.train import DataBundle, make_initial_checkpoint

    records, store = generate_synthetic_corpus(seed=0, n_images=40, label_vocab=DEFAULT_LABELS)
    train = [r for r in records if r.split == "train"]
    vocab = Vocabulary.from_records(train)
    bundle = DataBundle(records, store, vocab, list(DEFAULT_LABELS))
    run_cfg = RunConfig()
    ckpt = make_initial_checkpoint(run_cfg, bundle, seed=0)
    cfg = ckpt.config
    maker = BatchMaker(train, store, vocab, AnswerTable(ckpt.extra["answers"]),
                       run_cfg.masking, cfg)

    def pretrain(batch):
        chunk = train[:batch]

        def step_loss(params, rng):
            packed = collate(maker.make_batch(chunk, rng), vocab)
            out = forward_batch(packed, params, cfg, Runtime(training=True, rng=rng))
            return pretrain_losses(packed, out, params, qa_enabled=True).total
        return step_loss

    pairs = generate_pairwise_corpus(store, DEFAULT_LABELS, 32, seed=1)
    labels = np.array([int(p.label) for p in pairs], dtype=np.int64)

    def pairwise(params, rng):
        rt = Runtime(training=True, rng=rng)
        cls = []
        for side in ("image_id_0", "image_id_1"):
            rows = [plain_row(getattr(p, side), p.sentence, store, vocab, cfg) for p in pairs]
            cls.append(forward_batch(collate(CrossModalBatch(rows), vocab), params, cfg, rt).cls)
        return pairwise_bce(pairwise_logit(*cls, params, cfg.ln_eps), labels)

    pair_params = {**ckpt.params, **init_head_params(cfg, np.random.default_rng(1), PAIRWISE_HEAD)}
    return {
        "pretrain-b4": (ckpt.params, pretrain(4)),
        "pretrain-b32": (ckpt.params, pretrain(32)),
        "pairwise-b32": (pair_params, pairwise),
    }


def measure(params, step_loss) -> tuple[int, int, int]:
    """Median minor faults per step, and traced bytes at and above backward's start."""
    import numpy as np

    from crossmodal.optim import OptimizerState, adam_step, clip_gradients
    from crossmodal.tensor import Tape, backward, zero_grads

    opt = OptimizerState.init(params, 1e-3, 0.0, WARMUP + STEPS + 1)
    rng = np.random.default_rng(2)

    def step(traced: bool):
        zero_grads(params)
        if traced:
            tracemalloc.start()
        with Tape():
            loss = step_loss(params, rng)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        if traced:
            tracemalloc.stop()
        clip_gradients(params, 5.0)
        adam_step(params, {name: p.grad for name, p in params.items()}, opt, 1e-4)
        return start, peak

    faults = []
    for i in range(WARMUP + STEPS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step(traced=False)
        if i >= WARMUP:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    start, peak = step(traced=True)
    return int(statistics.median(faults)), start, peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Page faults and traced bytes per training step.")
    parser.add_argument("checkout", nargs="?", default=HERE,
                        help="checkout whose src/ is measured (default: this one)")
    _import(parser.parse_args(argv).checkout)
    print(f"{'step':<14}{'faults':>8}{'start':>12}{'peak':>12}")
    for name, (params, step_loss) in _workloads().items():
        faults, start, peak = measure(params, step_loss)
        print(f"{name:<14}{faults:>8}{start:>12}{peak:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
