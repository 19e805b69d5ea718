"""Attention sub-layers and the three encoder stacks.

The language and object-relationship encoders are stacks of self-attention
layers; the cross-modality encoder stacks layers that apply a bidirectional
cross-attention sub-layer, then per-modality self-attention, then a
feed-forward sub-layer, with residual + layer norm after every sub-layer.
Both cross-attention directions read the same previous-layer inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig
from .data import PackedBatch
from .embeddings import embed_objects, embed_words
from .tensor import Tensor, attention, dropout, gelu, layer_norm, linear


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
    lang: Tensor          # (B, n, d)
    vis: Tensor           # (B, m, d)
    cls: Tensor           # (B, d), language row at the [CLS] position
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
    """Scaled dot-product attention with ``cfg.num_heads`` heads (``tensor.attention``)
    and the output projection.

    Returns the output features and the softmax weights (pre-dropout) for
    the attention-dump interface.
    """
    d = cfg.hidden_size
    if query_seq.shape[-1] != d or context_seq.shape[-1] != d:
        raise ValueError(
            f"attention width mismatch: query {query_seq.shape}, context {context_seq.shape}, hidden {d}"
        )
    mixed, weights = attention(
        query_seq, context_seq,
        *(params[f"{prefix}.{name}"] for name in ("wq", "bq", "wk", "bk", "wv", "bv")),
        cfg.num_heads, context_mask, cfg.dropout, rt.rng, rt.training)
    return linear(mixed, params[f"{prefix}.wo"], params[f"{prefix}.bo"]), weights


def _sublayer(x: Tensor, sub_out: Tensor, params, prefix: str, cfg: ModelConfig, rt: Runtime) -> Tensor:
    """Residual connection and layer normalization around a sub-layer."""
    return layer_norm(
        x + dropout(sub_out, cfg.dropout, rt.rng, rt.training),
        params[f"{prefix}.g"], params[f"{prefix}.b"], cfg.ln_eps,
    )


def _feed_forward(x: Tensor, params, prefix: str) -> Tensor:
    inner = gelu(linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return linear(inner, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def single_modality_layer(
    x: Tensor,
    self_mask: np.ndarray | None,
    params: dict[str, Tensor],
    prefix: str,
    cfg: ModelConfig,
    rt: Runtime,
) -> tuple[Tensor, np.ndarray]:
    att, weights = multi_head_attention(x, x, self_mask, params, f"{prefix}.attn", cfg, rt)
    y1 = _sublayer(x, att, params, f"{prefix}.attn_ln", cfg, rt)
    y2 = _sublayer(y1, _feed_forward(y1, params, f"{prefix}.ff"), params, f"{prefix}.ff_ln", cfg, rt)
    return y2, weights


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
    lang_x = _sublayer(lang, l2r, params, f"{prefix}.l2r_ln", cfg, rt)
    vis_x = _sublayer(vis, r2l, params, f"{prefix}.r2l_ln", cfg, rt)

    self_l, w_sl = multi_head_attention(lang_x, lang_x, lang_mask, params, f"{prefix}.self_l", cfg, rt)
    self_r, w_sr = multi_head_attention(vis_x, vis_x, vis_mask, params, f"{prefix}.self_r", cfg, rt)
    lang_s = _sublayer(lang_x, self_l, params, f"{prefix}.self_l_ln", cfg, rt)
    vis_s = _sublayer(vis_x, self_r, params, f"{prefix}.self_r_ln", cfg, rt)

    lang_out = _sublayer(lang_s, _feed_forward(lang_s, params, f"{prefix}.ff_l"),
                         params, f"{prefix}.ff_l_ln", cfg, rt)
    vis_out = _sublayer(vis_s, _feed_forward(vis_s, params, f"{prefix}.ff_r"),
                        params, f"{prefix}.ff_r_ln", cfg, rt)
    weights = [
        ("cross-L->R", w_l2r),
        ("cross-R->L", w_r2l),
        ("self-L", w_sl),
        ("self-R", w_sr),
    ]
    return lang_out, vis_out, weights


def forward_batch(packed: PackedBatch, params: dict[str, Tensor], cfg: ModelConfig,
                  rt: Runtime = EVAL) -> ModelOutputs:
    """Run the full three-encoder model on a packed batch."""
    lang = embed_words(packed.token_ids, params, cfg)
    vis = embed_objects(packed.roi_features, packed.boxes, packed.obj_mask_flags, params, cfg)
    lang_mask = packed.token_mask
    vis_mask = packed.obj_real

    records: list[AttentionRecord] = []
    for i in range(cfg.n_lang_layers):
        lang, w = single_modality_layer(lang, lang_mask, params, f"lang.{i}", cfg, rt)
        records.append(AttentionRecord("language", i, "self-L", w))
    for i in range(cfg.n_vis_layers):
        vis, w = single_modality_layer(vis, vis_mask, params, f"vis.{i}", cfg, rt)
        records.append(AttentionRecord("object", i, "self-R", w))
    for k in range(cfg.n_cross_layers):
        lang, vis, group = cross_modality_layer(
            lang, vis, lang_mask, vis_mask, params, f"cross.{k}", cfg, rt)
        records.extend(AttentionRecord("cross", k, name, w) for name, w in group)

    cls = lang[:, 0, :]
    return ModelOutputs(lang=lang, vis=vis, cls=cls, attention=records)

