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

The heads read two things from the cross stack: matching, QA and the
pairwise head read the language stream's [CLS] row, and the masked-object
heads read the object stream. In eval mode ``cross_stack`` can be asked
for one of them alone; its last layer then runs only that stream, and for
the [CLS] row only that query row after the cross-attention sub-layer.
Training always runs whole layers, since a skipped sub-layer would skip
its dropout draw and move every later draw of the run's generator.
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
) -> tuple[Tensor, Tensor, list[tuple[str, np.ndarray]]]:
    """One cross-modality layer: Cross, then Self per modality, then FF.

    The two cross-attention directions both read the layer inputs; neither
    sees the other's output.
    """
    l2r, w_l2r = multi_head_attention(lang, vis, vis_mask, params, f"{prefix}.l2r", cfg, rt)
    r2l, w_r2l = multi_head_attention(vis, lang, lang_mask, params, f"{prefix}.r2l", cfg, rt)
    lang_x = _attention_out(lang, l2r, params, f"{prefix}.l2r", cfg, rt)
    vis_x = _attention_out(vis, r2l, params, f"{prefix}.r2l", cfg, rt)

    self_l, w_sl = multi_head_attention(lang_x, lang_x, lang_mask, params, f"{prefix}.self_l", cfg, rt)
    self_r, w_sr = multi_head_attention(vis_x, vis_x, vis_mask, params, f"{prefix}.self_r", cfg, rt)
    lang_s = _attention_out(lang_x, self_l, params, f"{prefix}.self_l", cfg, rt)
    vis_s = _attention_out(vis_x, self_r, params, f"{prefix}.self_r", cfg, rt)

    lang_out = _feed_forward(lang_s, params, f"{prefix}.ff_l", cfg, rt)
    vis_out = _feed_forward(vis_s, params, f"{prefix}.ff_r", cfg, rt)
    weights = [
        ("cross-L->R", w_l2r),
        ("cross-R->L", w_r2l),
        ("self-L", w_sl),
        ("self-R", w_sr),
    ]
    return lang_out, vis_out, weights


# the sub-layers of each stream of a cross-modality layer, and its attention directions
_STREAMS = {
    "cls": (("l2r", "self_l", "ff_l"), ("cross-L->R", "self-L")),
    "vis": (("r2l", "self_r", "ff_r"), ("cross-R->L", "self-R")),
}


def _cross_stream(x: Tensor, other: Tensor, x_mask: np.ndarray | None,
                  other_mask: np.ndarray | None, params: dict[str, Tensor], prefix: str,
                  cfg: ModelConfig, keep: str) -> tuple[Tensor, list[tuple[str, np.ndarray]]]:
    """One stream of an eval-mode cross-modality layer: the language stream's
    [CLS] row (``keep`` "cls", (B, 1, d)) or the object stream ("vis", (B, m, d)).

    Cross-attention and its residual run for every row of ``x``, since they
    are the self-attention's context; self-attention, its residual and the
    feed-forward sub-layer then run for the kept query rows only.
    """
    (cross, self_, ff), directions = _STREAMS[keep]
    att, w_cross = multi_head_attention(x, other, other_mask, params, f"{prefix}.{cross}", cfg, EVAL)
    x = _attention_out(x, att, params, f"{prefix}.{cross}", cfg, EVAL)
    query = x[:, :1] if keep == "cls" else x
    att, w_self = multi_head_attention(query, x, x_mask, params, f"{prefix}.{self_}", cfg, EVAL)
    y = _attention_out(query, att, params, f"{prefix}.{self_}", cfg, EVAL)
    out = _feed_forward(y, params, f"{prefix}.{ff}", cfg, EVAL)
    return out, list(zip(directions, (w_cross, w_self)))


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

    ``keep`` "all" runs every layer whole. In eval mode, "cls" returns only
    ``cls`` and "vis" only ``vis``: every layer but the last runs whole,
    and the last runs only what its kept output reads (``_cross_stream``).
    Asking for less in training mode raises ``ValueError``.
    """
    if keep not in ("all", *_STREAMS):
        raise ValueError(f"cross_stack keeps 'all', 'cls' or 'vis', not {keep!r}")
    if keep != "all" and rt.training:
        raise ValueError("a training pass runs whole cross-modality layers: a skipped "
                         "sub-layer would skip its dropout draw")
    whole = cfg.n_cross_layers - (keep != "all")
    records = []
    for k in range(whole):
        lang, vis, group = cross_modality_layer(
            lang, vis, token_mask, obj_real, params, f"cross.{k}", cfg, rt)
        records.extend(AttentionRecord("cross", k, name, w) for name, w in group)
    if keep == "all":
        return ModelOutputs(lang=lang, vis=vis, cls=lang[:, 0, :], attention=records)
    x, other, masks = (lang, vis, (token_mask, obj_real)) if keep == "cls" else (
        vis, lang, (obj_real, token_mask))
    out, group = _cross_stream(x, other, *masks, params, f"cross.{whole}", cfg, keep)
    records.extend(AttentionRecord("cross", whole, name, w) for name, w in group)
    if keep == "cls":
        return ModelOutputs(lang=None, vis=None, cls=out[:, 0, :], attention=records)
    return ModelOutputs(lang=None, vis=out, cls=None, attention=records)


def forward_batch(packed: PackedBatch, params: dict[str, Tensor], cfg: ModelConfig,
                  rt: Runtime = EVAL) -> ModelOutputs:
    """Run the full three-encoder model on a packed batch."""
    lang, lang_records = language_stack(packed.token_ids, packed.token_mask, params, cfg, rt)
    vis, vis_records = object_stack(packed.roi_features, packed.boxes, packed.obj_mask_flags,
                                    packed.obj_real, params, cfg, rt)
    out = cross_stack(lang, vis, packed.token_mask, packed.obj_real, params, cfg, rt)
    out.attention[:0] = lang_records + vis_records
    return out
