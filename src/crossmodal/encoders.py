"""Attention sub-layers and the three encoder stacks.

The language and object-relationship encoders are stacks of self-attention
layers; the cross-modality encoder stacks layers that apply a bidirectional
cross-attention sub-layer, then per-modality self-attention, then a
feed-forward sub-layer, with residual + layer norm after every sub-layer.
Both cross-attention directions read the same previous-layer inputs.

The model runs as three stages: ``language_stack`` (word embedding and the
``lang.*`` layers), ``object_stack`` (object embedding and the ``vis.*``
layers) and ``cross_stack`` (the ``cross.*`` layers and the [CLS] row).
The first two are single-modality, so a sentence's or an image's states do
not depend on the other modality, and evaluation encodes each once.
``forward_batch`` runs the three in that order on one packed batch.

One function, ``cross_modality_layer``, runs a cross-modality layer for
training and for evaluation. The heads read two things from the cross
stack: matching, QA and the pairwise head read the language stream's [CLS]
row, and the masked-object heads read the object stream. In eval mode
``cross_stack`` can be asked for one of them alone. It passes that ``keep``
to its last layer, which then runs only that stream, and for the [CLS] row
only that query row from self-attention on. Training always runs whole
layers, since a skipped sub-layer would skip its dropout draw and move
every later draw of the run's generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig
from .data import PackedBatch
from .embeddings import embed_objects, embed_words
from .tensor import Tensor, attention, feed_forward, residual_layer_norm


@dataclass
class Runtime:
    """Per-pass execution mode: dropout on/off and its rng stream."""

    training: bool = False
    rng: np.random.Generator | None = None


EVAL = Runtime(training=False)


@dataclass
class AttentionRecord:
    encoder: str          # "language" | "object" | "cross"
    layer: int
    direction: str        # "self-L" | "self-R" | "cross-L->R" | "cross-R->L"
    weights: np.ndarray   # (B, heads, query, context), rows sum to 1


@dataclass
class ModelOutputs:
    lang: Tensor | None   # (B, n, d); None when cross_stack was asked for objects or [CLS]
    vis: Tensor | None    # (B, m, d); None when cross_stack was asked for [CLS]
    cls: Tensor | None    # (B, d), language row at the [CLS] position; None when asked for objects
    attention: list[AttentionRecord] = field(default_factory=list)


def multi_head_attention(
    query_seq: Tensor,
    context_seq: Tensor,
    context_mask: np.ndarray | None,
    params: dict[str, Tensor],
    prefix: str,
    cfg: ModelConfig,
    rt: Runtime,
) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention with ``cfg.num_heads`` heads (``tensor.attention``).

    Returns the merged heads, before the output projection, which
    ``_attention_out`` applies, and the softmax weights (pre-dropout) for
    the attention-dump interface.
    """
    d = cfg.hidden_size
    if query_seq.shape[-1] != d or context_seq.shape[-1] != d:
        raise ValueError(
            f"attention width mismatch: query {query_seq.shape}, context {context_seq.shape}, hidden {d}"
        )
    return attention(
        query_seq, context_seq,
        *(params[f"{prefix}.{name}"] for name in ("wq", "bq", "wk", "bk", "wv", "bv")),
        cfg.num_heads, context_mask, cfg.dropout, rt.rng, rt.training)


def _ln_args(params, prefix: str, cfg: ModelConfig, rt: Runtime) -> tuple:
    """The layer-norm and dropout arguments of the sub-layer ``prefix`` (norm at ``prefix_ln``)."""
    return (params[f"{prefix}_ln.g"], params[f"{prefix}_ln.b"], cfg.ln_eps, cfg.dropout,
            rt.rng, rt.training)


def _attention_out(x: Tensor, heads: Tensor, params, prefix: str, cfg: ModelConfig,
                   rt: Runtime) -> Tensor:
    """Output projection, dropout, residual and layer norm after attention (one record)."""
    return residual_layer_norm(x, heads, params[f"{prefix}.wo"], params[f"{prefix}.bo"],
                               *_ln_args(params, prefix, cfg, rt))


def _feed_forward(x: Tensor, params, prefix: str, cfg: ModelConfig, rt: Runtime) -> Tensor:
    """Linear, GELU, linear, then dropout, residual and layer norm (one record)."""
    return feed_forward(x, *(params[f"{prefix}.{name}"] for name in ("w1", "b1", "w2", "b2")),
                        *_ln_args(params, prefix, cfg, rt))


def single_modality_layer(
    x: Tensor,
    self_mask: np.ndarray | None,
    params: dict[str, Tensor],
    prefix: str,
    cfg: ModelConfig,
    rt: Runtime,
) -> tuple[Tensor, np.ndarray]:
    att, weights = multi_head_attention(x, x, self_mask, params, f"{prefix}.attn", cfg, rt)
    y = _attention_out(x, att, params, f"{prefix}.attn", cfg, rt)
    return _feed_forward(y, params, f"{prefix}.ff", cfg, rt), weights


def cross_modality_layer(
    lang: Tensor,
    vis: Tensor,
    lang_mask: np.ndarray | None,
    vis_mask: np.ndarray | None,
    params: dict[str, Tensor],
    prefix: str,
    cfg: ModelConfig,
    rt: Runtime,
    keep: str = "all",
) -> tuple[Tensor | None, Tensor | None, list[tuple[str, np.ndarray]]]:
    """One cross-modality layer: Cross, then Self per modality, then FF.

    The two cross-attention directions both read the layer inputs; neither
    sees the other's output. The layer runs stage by stage (cross-attention,
    its residual, self-attention, its residual, feed-forward), the language
    stream before the object stream within each stage. That fixes the order
    of a training pass's dropout draws and of the returned attention weights.

    ``keep`` "all" runs both streams. In eval mode, "vis" runs the object
    stream alone, and "cls" the language stream alone, from self-attention
    on for the [CLS] query row only, so its output is (B, 1, d). A stream
    not run comes back as None. Asking for less in training mode raises
    ``ValueError``: a skipped sub-layer would skip its dropout draw and move
    every later draw of the run's generator.
    """
    if keep not in ("all", "cls", "vis"):
        raise ValueError(f"a cross-modality layer keeps 'all', 'cls' or 'vis', not {keep!r}")
    if keep != "all" and rt.training:
        raise ValueError("a training pass runs whole cross-modality layers: a skipped "
                         "sub-layer would skip its dropout draw")
    # stream 0 is language, stream 1 objects; each cross-attends to the other
    x, masks = [lang, vis], (lang_mask, vis_mask)
    run = [i for i, skipped_by in enumerate(("vis", "cls")) if keep != skipped_by]
    cross = (f"{prefix}.l2r", f"{prefix}.r2l")
    self_ = (f"{prefix}.self_l", f"{prefix}.self_r")
    ff = (f"{prefix}.ff_l", f"{prefix}.ff_r")
    heads, weights = [None, None], []
    for i in run:
        heads[i], w = multi_head_attention(x[i], x[1 - i], masks[1 - i], params, cross[i], cfg, rt)
        weights.append((("cross-L->R", "cross-R->L")[i], w))
    for i in run:
        x[i] = _attention_out(x[i], heads[i], params, cross[i], cfg, rt)
    query = [x[0][:, :1] if keep == "cls" else x[0], x[1]]
    for i in run:
        heads[i], w = multi_head_attention(query[i], x[i], masks[i], params, self_[i], cfg, rt)
        weights.append((("self-L", "self-R")[i], w))
    for i in run:
        x[i] = _attention_out(query[i], heads[i], params, self_[i], cfg, rt)
    for i in run:
        x[i] = _feed_forward(x[i], params, ff[i], cfg, rt)
    lang_out, vis_out = (x[i] if i in run else None for i in (0, 1))
    return lang_out, vis_out, weights


def language_stack(token_ids: np.ndarray, token_mask: np.ndarray, params: dict[str, Tensor],
                   cfg: ModelConfig, rt: Runtime = EVAL
                   ) -> tuple[Tensor, list[AttentionRecord]]:
    """Word embedding and the ``lang.*`` layers on (B, n) ids: (B, n, d) states and their attention."""
    lang = embed_words(token_ids, params, cfg)
    records = []
    for i in range(cfg.n_lang_layers):
        lang, w = single_modality_layer(lang, token_mask, params, f"lang.{i}", cfg, rt)
        records.append(AttentionRecord("language", i, "self-L", w))
    return lang, records


def object_stack(roi_features: np.ndarray, boxes: np.ndarray, obj_mask_flags: np.ndarray,
                 obj_real: np.ndarray, params: dict[str, Tensor], cfg: ModelConfig,
                 rt: Runtime = EVAL) -> tuple[Tensor, list[AttentionRecord]]:
    """Object embedding and the ``vis.*`` layers on (B, m, .) objects: (B, m, d) states and their attention."""
    vis = embed_objects(roi_features, boxes, obj_mask_flags, params, cfg)
    records = []
    for i in range(cfg.n_vis_layers):
        vis, w = single_modality_layer(vis, obj_real, params, f"vis.{i}", cfg, rt)
        records.append(AttentionRecord("object", i, "self-R", w))
    return vis, records


def cross_stack(lang: Tensor, vis: Tensor, token_mask: np.ndarray, obj_real: np.ndarray,
                params: dict[str, Tensor], cfg: ModelConfig, rt: Runtime = EVAL,
                keep: str = "all") -> ModelOutputs:
    """The ``cross.*`` layers on the two single-modality stacks' states, and the [CLS] row.

    Every layer but the last runs whole; the last gets ``keep``
    (``cross_modality_layer``). "all" returns every output, "cls" only
    ``cls`` and "vis" only ``vis``.
    """
    last = cfg.n_cross_layers - 1
    records = []
    for k in range(cfg.n_cross_layers):
        lang, vis, group = cross_modality_layer(lang, vis, token_mask, obj_real, params,
                                                f"cross.{k}", cfg, rt, keep if k == last else "all")
        records.extend(AttentionRecord("cross", k, name, w) for name, w in group)
    return ModelOutputs(lang=lang if keep == "all" else None, vis=vis,
                        cls=None if lang is None else lang[:, 0, :], attention=records)


def forward_batch(packed: PackedBatch, params: dict[str, Tensor], cfg: ModelConfig,
                  rt: Runtime = EVAL) -> ModelOutputs:
    """Run the full three-encoder model on a packed batch."""
    lang, lang_records = language_stack(packed.token_ids, packed.token_mask, params, cfg, rt)
    vis, vis_records = object_stack(packed.roi_features, packed.boxes, packed.obj_mask_flags,
                                    packed.obj_real, params, cfg, rt)
    out = cross_stack(lang, vis, packed.token_mask, packed.obj_real, params, cfg, rt)
    out.attention[:0] = lang_records + vis_records
    return out
