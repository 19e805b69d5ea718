"""Canonical parameter layout and initialization.

Parameters live in a flat dict keyed by dotted names; the layout function
is the single source of truth for which names exist at a given config, so
checkpoint validation and initialization cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .tensor import Tensor, arena, default_dtype

PRETRAIN_HEADS = "pretrain"
PAIRWISE_HEAD = "pairwise"


def trunc_normal(rng: np.random.Generator, shape, std: float,
                 bound: float = 2.0) -> np.ndarray:
    """Normal(0, std) redrawn until every sample lies within bound*std."""
    x = rng.normal(0.0, std, size=shape)
    limit = bound * std
    bad = np.abs(x) > limit
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > limit
    return x


def _attention_block(layout: dict, prefix: str, d: int) -> None:
    for name in ("wq", "wk", "wv", "wo"):
        layout[f"{prefix}.{name}"] = (d, d)
    for name in ("bq", "bk", "bv", "bo"):
        layout[f"{prefix}.{name}"] = (d,)


def _ln_block(layout: dict, prefix: str, d: int) -> None:
    layout[f"{prefix}.g"] = (d,)
    layout[f"{prefix}.b"] = (d,)


def _ff_block(layout: dict, prefix: str, d: int) -> None:
    layout[f"{prefix}.w1"] = (d, 4 * d)
    layout[f"{prefix}.b1"] = (4 * d,)
    layout[f"{prefix}.w2"] = (4 * d, d)
    layout[f"{prefix}.b2"] = (d,)


def _single_layer(layout: dict, prefix: str, d: int) -> None:
    _attention_block(layout, f"{prefix}.attn", d)
    _ln_block(layout, f"{prefix}.attn_ln", d)
    _ff_block(layout, f"{prefix}.ff", d)
    _ln_block(layout, f"{prefix}.ff_ln", d)


def _cross_layer(layout: dict, prefix: str, d: int) -> None:
    _attention_block(layout, f"{prefix}.l2r", d)
    _ln_block(layout, f"{prefix}.l2r_ln", d)
    _attention_block(layout, f"{prefix}.r2l", d)
    _ln_block(layout, f"{prefix}.r2l_ln", d)
    _attention_block(layout, f"{prefix}.self_l", d)
    _ln_block(layout, f"{prefix}.self_l_ln", d)
    _attention_block(layout, f"{prefix}.self_r", d)
    _ln_block(layout, f"{prefix}.self_r_ln", d)
    _ff_block(layout, f"{prefix}.ff_l", d)
    _ln_block(layout, f"{prefix}.ff_l_ln", d)
    _ff_block(layout, f"{prefix}.ff_r", d)
    _ln_block(layout, f"{prefix}.ff_r_ln", d)


def parameter_layout(cfg: ModelConfig, heads: tuple[str, ...] = (PRETRAIN_HEADS,)) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape map for every parameter at this config."""
    cfg.validate()
    d = cfg.hidden_size
    layout: dict[str, tuple[int, ...]] = {}

    layout["emb.word"] = (cfg.vocab_size, d)
    layout["emb.pos"] = (cfg.max_sentence_len, d)
    _ln_block(layout, "emb.lang_ln", d)
    layout["emb.feat_w"] = (cfg.feat_dim, d)
    layout["emb.feat_b"] = (d,)
    _ln_block(layout, "emb.feat_ln", d)
    layout["emb.box_w"] = (4, d)
    layout["emb.box_b"] = (d,)
    _ln_block(layout, "emb.box_ln", d)

    for i in range(cfg.n_lang_layers):
        _single_layer(layout, f"lang.{i}", d)
    for i in range(cfg.n_vis_layers):
        _single_layer(layout, f"vis.{i}", d)
    for i in range(cfg.n_cross_layers):
        _cross_layer(layout, f"cross.{i}", d)

    if PRETRAIN_HEADS in heads:
        layout["head.mlm_bias"] = (cfg.vocab_size,)
        layout["head.match.w"] = (d, 2)
        layout["head.match.b"] = (2,)
        layout["head.qa.w"] = (d, cfg.num_answers)
        layout["head.qa.b"] = (cfg.num_answers,)
        layout["head.obj_feat.w"] = (d, cfg.feat_dim)
        layout["head.obj_feat.b"] = (cfg.feat_dim,)
        layout["head.obj_label.w"] = (d, cfg.num_labels)
        layout["head.obj_label.b"] = (cfg.num_labels,)
    if PAIRWISE_HEAD in heads:
        layout["pair.w0"] = (2 * d, d)
        layout["pair.b0"] = (d,)
        _ln_block(layout, "pair.ln", d)
        layout["pair.w1"] = (d, 1)
        layout["pair.b1"] = (1,)
    return layout


def _init_layout(layout: dict[str, tuple[int, ...]], rng: np.random.Generator,
                 std: float) -> dict[str, Tensor]:
    """Per name, in layout order: layer-norm gains 1, other 1-D tensors 0,
    everything else truncated normal (the only draws from ``rng``). The
    tensors are views of one arena buffer, so the optimizer packs nothing."""
    _, views = arena(list(layout.values()), default_dtype())
    params: dict[str, Tensor] = {}
    for (name, shape), data in zip(layout.items(), views):
        if name.endswith(".g"):
            data.fill(1)
        elif len(shape) == 1:
            data.fill(0)
        else:
            data[...] = trunc_normal(rng, shape, std)
        params[name] = Tensor(data, requires_grad=True)
    return params


def init_params(cfg: ModelConfig, rng: np.random.Generator,
                heads: tuple[str, ...] = (PRETRAIN_HEADS,)) -> dict[str, Tensor]:
    """Truncated-normal weights, zero biases, unit layer-norm gains.

    The weight std defaults to 1/sqrt(hidden_size) so attention sub-layers
    carry O(1) signal at any width; set ``cfg.init_std`` to pin a value.
    """
    return _init_layout(parameter_layout(cfg, heads), rng, cfg.weight_init_std)


def init_head_params(cfg: ModelConfig, rng: np.random.Generator, head: str) -> dict[str, Tensor]:
    """Initialize just one head group (used when fine-tuning adds or resets heads)."""
    base = parameter_layout(cfg, heads=())
    layout = {name: shape for name, shape in parameter_layout(cfg, heads=(head,)).items()
              if name not in base}
    return _init_layout(layout, rng, cfg.weight_init_std)
