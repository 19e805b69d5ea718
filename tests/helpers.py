"""Shared test oracles: central finite differences, gradient comparison, an
unmasked row built from raw arrays, a single-pair forward pass, and
evaluation through ``forward_batch``."""

import numpy as np

from crossmodal.config import MaskingConfig
from crossmodal.data import (
    OUT_OF_TABLE,
    AnswerTable,
    BatchMaker,
    BatchRow,
    CrossModalBatch,
    Vocabulary,
    can_mismatch,
    collate,
    plain_row,
)
from crossmodal.encoders import forward_batch
from crossmodal.heads import head_logits, masked_object_rows
from crossmodal.tensor import Tape, backward


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. array x, in place."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def assert_grads_close(analytic: np.ndarray, numeric: np.ndarray,
                       rtol: float = 1e-4, floor: float = 1e-6,
                       atol_small: float = 1e-5, name: str = "") -> None:
    a = np.asarray(analytic).reshape(-1)
    n = np.asarray(numeric).reshape(-1)
    big = np.abs(a) > floor
    if big.any():
        rel = np.abs(a - n)[big] / np.maximum(np.abs(a), np.abs(n))[big]
        assert rel.max() < rtol, f"{name}: max relative grad error {rel.max():.3e}"
    if (~big).any():
        assert np.abs(n[~big]).max() < atol_small, (
            f"{name}: numeric grad nonzero where analytic ~ 0"
        )


def gradcheck(build_loss, leaves: dict[str, "object"], h: float = 1e-5,
              rtol: float = 1e-4) -> None:
    """Compare tape gradients of build_loss() against finite differences.

    ``build_loss`` must rebuild the forward pass from the leaf tensors each
    time it is called; leaves are float64 Tensors with requires_grad set.
    """
    for leaf in leaves.values():
        leaf.grad = None
    with Tape():
        loss = build_loss()
        backward(loss)
    analytic = {k: t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for k, t in leaves.items()}

    def value():
        return float(build_loss().data)

    for name, leaf in leaves.items():
        numeric = numeric_grad(value, leaf.data, h)
        assert_grads_close(analytic[name], numeric, rtol=rtol, name=name)


def unmasked_row(token_ids, roi_features, boxes, detected_labels) -> BatchRow:
    """A matched non-question row with no word or object masked."""
    return BatchRow(token_ids, np.full(len(token_ids), -1), roi_features, boxes,
                    detected_labels, np.zeros(len(detected_labels), dtype=bool),
                    True, -1, False)


def forward_one(row, params, cfg):
    """One row through collate + forward_batch: (n, d) lang, (m, d) vis, (d,) cls, attention."""
    out = forward_batch(collate(CrossModalBatch([row]), Vocabulary([])), params, cfg)
    return out.lang.data[0], out.vis.data[0], out.cls.data[0], out.attention


def reference_evaluation(ckpt, bundle, seed: int, batch_size: int = 32):
    """``evaluate_checkpoint``'s three passes, each whole batch run through
    ``forward_batch``: its metric dict, and each head's logits of the scored
    rows in scoring order, flattened."""
    cfg, params = ckpt.config, ckpt.params
    table = AnswerTable(list(ckpt.extra.get("answers", [])))
    dev = bundle.split("dev") or bundle.split("train")
    rng = np.random.default_rng(seed)
    logits = {"head.match": [], "head.obj_label": [], "head.qa": []}

    def score(head, packed_batches, pick):
        hits = total = 0
        for packed in packed_batches:
            x, truth = pick(packed, forward_batch(packed, params, cfg))
            z = head_logits(x, params, head).data
            logits[head].append(z)
            hits += int((z.argmax(axis=1) == truth).sum())
            total += len(truth)
        return (hits / total if total else float("nan")), total

    def passes(**masking):
        maker = BatchMaker(dev, bundle.store, bundle.vocab, table, MaskingConfig(**masking), cfg)
        return (collate(maker.make_batch(dev[i:i + batch_size], rng), bundle.vocab)
                for i in range(0, len(dev), batch_size))

    def masked_labels(packed, out):
        rows, picked = masked_object_rows(out.vis, packed.obj_mask_flags)
        return rows, packed.detected_labels.reshape(-1)[picked]

    match = (float("nan"), 0)
    if can_mismatch(dev):
        match = score("head.match",
                      passes(word_mask_prob=0.0, object_mask_prob=0.0, mismatch_prob=0.5),
                      lambda packed, out: (out.cls, packed.match_labels))
    label = score("head.obj_label",
                  passes(word_mask_prob=0.0, mismatch_prob=0.0, object_mask_prob=0.15),
                  masked_labels)
    questions = [r for r in dev if r.is_question and table.lookup(r.answer) != OUT_OF_TABLE]
    qa = score("head.qa", (
        collate(CrossModalBatch([
            plain_row(r.image_id, r.sentence, bundle.store, bundle.vocab, cfg,
                      is_question=True, answer_index=table.lookup(r.answer))
            for r in questions[i:i + batch_size]]), bundle.vocab)
        for i in range(0, len(questions), batch_size)),
        lambda packed, out: (out.cls, packed.answer_indices))
    metrics = {
        "match_accuracy": match[0], "match_n": match[1],
        "masked_label_accuracy": label[0], "masked_label_n": label[1],
        "label_chance": 1.0 / cfg.num_labels,
        "qa_accuracy": qa[0], "qa_n": qa[1],
    }
    return metrics, {head: np.concatenate([a.reshape(-1) for a in z] + [np.zeros(0, np.float32)])
                     for head, z in logits.items()}
