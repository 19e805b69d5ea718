"""Spans around the program's module functions, and the traced training step.

The traced step calls the same public functions as one step of
``run_pretraining`` -- ``BatchMaker.make_row``, ``collate``, ``zero_grads``,
the embedders and encoder layers in ``forward_batch``'s order,
``pretrain_losses``, ``backward``, ``clip_gradients`` and ``adam_step`` --
and records each call as a span (name, start, end, parent). Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from crossmodal.data import CrossModalBatch, collate
from crossmodal.embeddings import embed_objects, embed_words
from crossmodal.encoders import (
    AttentionRecord,
    ModelOutputs,
    cross_modality_layer,
    forward_batch,
    single_modality_layer,
)
from crossmodal.heads import pretrain_losses
from crossmodal.optim import adam_step, clip_gradients
from crossmodal.tensor import Tape, backward, zero_grads

# tape ops whose record counts are reported
COUNTED_OPS = ("matmul", "add", "mul", "transpose", "reshape", "dropout",
               "layer_norm", "softmax", "gelu")


class Tracer:
    """Spans as [name, start, end, parent index]; times from perf_counter."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


class _NoTrace:
    @contextmanager
    def span(self, name: str):
        yield


NO_TRACE = _NoTrace()


def op_name(rule) -> str:
    """Name of the primitive that recorded a tape entry: the rule's enclosing function."""
    return rule.__qualname__.split(".")[0]


def tape_bytes(records) -> int:
    """Bytes of the distinct arrays a tape keeps alive, inputs and outputs, views folded."""
    seen = {}
    for out, inputs, _ in records:
        for t in (out, *inputs):
            a = t.data
            while isinstance(a.base, np.ndarray):
                a = a.base
            seen[id(a)] = a.nbytes
    return sum(seen.values())


def traced_forward(packed, params, cfg, rt, tr) -> ModelOutputs:
    """``forward_batch`` unrolled into its module calls, one span per stack."""
    with tr.span("embeddings.forward"):
        lang = embed_words(packed.token_ids, params, cfg)
        vis = embed_objects(packed.roi_features, packed.boxes, packed.obj_mask_flags, params, cfg)
    lang_mask, vis_mask = packed.token_mask, packed.obj_real
    records = []
    with tr.span("encoders.lang.forward"):
        for i in range(cfg.n_lang_layers):
            lang, w = single_modality_layer(lang, lang_mask, params, f"lang.{i}", cfg, rt)
            records.append(AttentionRecord("language", i, "self-L", w))
    with tr.span("encoders.vis.forward"):
        for i in range(cfg.n_vis_layers):
            vis, w = single_modality_layer(vis, vis_mask, params, f"vis.{i}", cfg, rt)
            records.append(AttentionRecord("object", i, "self-R", w))
    with tr.span("encoders.cross.forward"):
        for k in range(cfg.n_cross_layers):
            lang, vis, group = cross_modality_layer(
                lang, vis, lang_mask, vis_mask, params, f"cross.{k}", cfg, rt)
            records.extend(AttentionRecord("cross", k, name, w) for name, w in group)
    return ModelOutputs(lang=lang, vis=vis, cls=lang[:, 0, :], attention=records)


def training_step(job, tr=NO_TRACE) -> dict:
    """One pre-training step in ``run_pretraining``'s order.

    With ``tr`` left at NO_TRACE this is the untraced step: the program's own
    ``forward_batch``, no spans, and an empty result. Traced, it returns the
    tape's record counts and bytes, taken before ``backward`` clears it.
    """
    cfg, params, vocab = job.cfg, job.params, job.vocab
    chunk = job.next_chunk()
    tape_metrics = {}
    with tr.span("train.step"):
        rows = []
        for rec in chunk:
            with tr.span("data.make_row"):
                rows.append(job.maker.make_row(rec, job.rng))
        with tr.span("data.collate"):
            packed = collate(CrossModalBatch(rows), vocab)
        with tr.span("optim.zero_grads"):
            zero_grads(params)
        with Tape() as tape:
            if tr is NO_TRACE:
                out = forward_batch(packed, params, cfg, job.rt)
            else:
                out = traced_forward(packed, params, cfg, job.rt, tr)
            with tr.span("heads.forward"):
                losses = pretrain_losses(packed, out, params, qa_enabled=True,
                                         gate_object_tasks=job.gate_object_tasks)
            if tr is not NO_TRACE:
                ops = Counter(op_name(rule) for _, _, rule in tape.records)
                tape_metrics = {f"tensor.records.{op}": ops[op] for op in COUNTED_OPS}
                tape_metrics["tensor.tape_records"] = len(tape.records)
                tape_metrics["tensor.tape_bytes"] = tape_bytes(tape.records)
            with tr.span("tensor.backward"):
                backward(losses.total)
        with tr.span("optim.clip"):
            clip_gradients(params, job.clip_norm)
        with tr.span("optim.adam"):
            adam_step(params, {k: p.grad for k, p in params.items()}, job.opt, job.lr)
    return tape_metrics


def eval_loss_pair(packed, params, cfg, rt) -> tuple[float, float]:
    """Eval-mode total loss through the traced forward and through forward_batch."""
    traced = traced_forward(packed, params, cfg, rt, Tracer())
    program = forward_batch(packed, params, cfg, rt)
    return (pretrain_losses(packed, traced, params).total.item(),
            pretrain_losses(packed, program, params).total.item())
