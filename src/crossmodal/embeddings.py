"""Input embeddings: index-aware word embeddings and position-aware object embeddings."""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .tensor import Tensor, embedding_lookup, layer_norm, matmul, tensor


def embed_words(token_ids: np.ndarray, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """h_i = LayerNorm(WordEmbed(w_i) + IdxEmbed(i)) for a (B, n) id batch."""
    ids = np.asarray(token_ids, dtype=np.int64)
    n = ids.shape[-1]
    pos_table = params["emb.pos"]
    if n > pos_table.shape[0]:
        raise ValueError(
            f"sentence length {n} exceeds the index table ({pos_table.shape[0]} positions)"
        )
    w = embedding_lookup(params["emb.word"], ids)
    u = embedding_lookup(pos_table, np.arange(n))
    return layer_norm(w + u, params["emb.lang_ln.g"], params["emb.lang_ln.b"], cfg.ln_eps)


def embed_objects(
    roi_features: np.ndarray,
    boxes: np.ndarray,
    mask_flags: np.ndarray | None,
    params: dict[str, Tensor],
    cfg: ModelConfig,
) -> Tensor:
    """v_j = (LayerNorm(W_F f_j + b_F) + LayerNorm(W_P p_j + b_P)) / 2 for (B, m, .) inputs.

    Each branch is normalized before the sum to balance the energy of the
    two feature types. Masked objects have f_j zeroed before projection;
    their boxes are kept so the model knows where the masked object is.
    """
    feats = np.asarray(roi_features)
    fw = params["emb.feat_w"]
    if feats.shape[-1] != fw.shape[0]:
        raise ValueError(
            f"feature width {feats.shape[-1]} does not match projection input {fw.shape[0]}"
        )
    if mask_flags is not None:
        keep = (~np.asarray(mask_flags, dtype=bool))[..., None]
        feats = feats * keep
    f = tensor(feats)
    p = tensor(boxes)
    fh = layer_norm(matmul(f, fw) + params["emb.feat_b"],
                    params["emb.feat_ln.g"], params["emb.feat_ln.b"], cfg.ln_eps)
    ph = layer_norm(matmul(p, params["emb.box_w"]) + params["emb.box_b"],
                    params["emb.box_ln.g"], params["emb.box_ln.b"], cfg.ln_eps)
    return (fh + ph) * 0.5
