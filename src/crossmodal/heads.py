"""The five pre-training objectives, their equal-weight total, and the
pairwise two-image classification head used for fine-tuning.

Loss reductions are per-task means over active elements (masked tokens,
masked objects, batch rows), so the equal weighting stays scale-balanced.
A task with no active elements contributes exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import OUT_OF_TABLE, PackedBatch
from .encoders import ModelOutputs
from .tensor import (
    Tensor,
    cast,
    concat,
    gelu,
    layer_norm,
    log_softmax,
    matmul,
    sigmoid,
    softplus,
    take_rows,
    tensor,
    tmean,
    transpose,
    tsum,
)


@dataclass
class LossBundle:
    """Per-task scalar losses, their active-element counts, and the total."""

    mlm: Tensor
    obj_feat: Tensor
    obj_label: Tensor
    match: Tensor
    qa: Tensor
    total: Tensor
    mlm_count: int = 0
    obj_count: int = 0
    match_count: int = 0
    qa_count: int = 0

    def floats(self) -> dict[str, float]:
        return {
            "mlm": self.mlm.item(),
            "obj_feat": self.obj_feat.item(),
            "obj_label": self.obj_label.item(),
            "match": self.match.item(),
            "qa": self.qa.item(),
            "total": self.total.item(),
        }


def _zero_loss(like: Tensor) -> Tensor:
    return tensor(0.0, dtype=like.data.dtype)


def head_logits(x: Tensor, params: dict[str, Tensor], head: str) -> Tensor:
    """``x @ W + b`` for the named output head: ``head.match``, ``head.qa``,
    ``head.obj_feat`` or ``head.obj_label``. The losses and evaluation share it."""
    return matmul(x, params[f"{head}.w"]) + params[f"{head}.b"]


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of (N, C) logits against N integer targets."""
    return -tmean(take_rows(log_softmax(logits), targets))


def masked_lm_loss(lang_out: Tensor, mlm_targets: np.ndarray,
                   params: dict[str, Tensor]) -> tuple[Tensor, int]:
    """Masked-word cross-entropy with logits tied to the input word table."""
    targets = np.asarray(mlm_targets)
    mask = targets >= 0
    count = int(mask.sum())
    if count == 0:
        return _zero_loss(lang_out), 0
    vocab = params["emb.word"].shape[0]
    picked = targets[mask]
    if picked.max() >= vocab:
        raise IndexError(f"mlm target id {picked.max()} out of vocabulary [0, {vocab})")
    b, n, d = lang_out.shape
    rows = lang_out.reshape((b * n, d))[mask.reshape(-1)]
    logits = matmul(rows, transpose(params["emb.word"], (1, 0))) + params["head.mlm_bias"]
    return cross_entropy(logits, picked), count


def roi_feature_regression_loss(vis_out: Tensor, mask_flags: np.ndarray,
                                regression_targets: np.ndarray,
                                params: dict[str, Tensor],
                                active_rows: np.ndarray | None = None) -> tuple[Tensor, int]:
    """Sum-of-squares feature error per masked object, averaged over objects."""
    flags = np.asarray(mask_flags, dtype=bool)
    if active_rows is not None:
        flags = flags & np.asarray(active_rows, dtype=bool)[:, None]
    count = int(flags.sum())
    if count == 0:
        return _zero_loss(vis_out), 0
    b, m, d = vis_out.shape
    rows = vis_out.reshape((b * m, d))[flags.reshape(-1)]
    pred = head_logits(rows, params, "head.obj_feat")
    target = np.asarray(regression_targets).reshape(b * m, -1)[flags.reshape(-1)]
    diff = pred - tensor(target, dtype=pred.data.dtype)
    return tsum(diff * diff) / count, count


def detected_label_loss(vis_out: Tensor, mask_flags: np.ndarray,
                        detected_labels: np.ndarray,
                        params: dict[str, Tensor],
                        active_rows: np.ndarray | None = None) -> tuple[Tensor, int]:
    """Cross-entropy on detector labels at masked object positions."""
    flags = np.asarray(mask_flags, dtype=bool)
    if active_rows is not None:
        flags = flags & np.asarray(active_rows, dtype=bool)[:, None]
    count = int(flags.sum())
    if count == 0:
        return _zero_loss(vis_out), 0
    b, m, d = vis_out.shape
    rows = vis_out.reshape((b * m, d))[flags.reshape(-1)]
    logits = head_logits(rows, params, "head.obj_label")
    picked = np.asarray(detected_labels).reshape(-1)[flags.reshape(-1)]
    return cross_entropy(logits, picked), count


def match_loss(cls_out: Tensor, match_labels: np.ndarray,
               params: dict[str, Tensor]) -> tuple[Tensor, int]:
    """Two-way matched/mismatched classification on the fused [CLS] vector."""
    logits = head_logits(cls_out, params, "head.match")
    labels = np.asarray(match_labels, dtype=np.int64)
    return cross_entropy(logits, labels), int(labels.shape[0])


def qa_loss(cls_out: Tensor, answer_indices: np.ndarray, match_labels: np.ndarray,
            is_question: np.ndarray, params: dict[str, Tensor],
            qa_enabled: bool = True) -> tuple[Tensor, int]:
    """Answer classification, active only for matched in-table questions."""
    if not qa_enabled:
        return _zero_loss(cls_out), 0
    answers = np.asarray(answer_indices)
    active = (
        np.asarray(is_question, dtype=bool)
        & (np.asarray(match_labels) == 1)
        & (answers != OUT_OF_TABLE)
    )
    count = int(active.sum())
    if count == 0:
        return _zero_loss(cls_out), 0
    rows = cls_out[active]
    logits = head_logits(rows, params, "head.qa")
    return cross_entropy(logits, answers[active]), count


def pretrain_losses(packed: PackedBatch, outputs: ModelOutputs,
                    params: dict[str, Tensor], qa_enabled: bool = True,
                    gate_object_tasks: bool = False) -> LossBundle:
    """All five task losses and their unweighted sum.

    ``qa_enabled=False`` forces the QA term to zero (phase-1 pre-training).
    ``gate_object_tasks`` restricts the two object sub-tasks to matched rows.
    """
    active_rows = (packed.match_labels == 1) if gate_object_tasks else None
    mlm, n_mlm = masked_lm_loss(outputs.lang, packed.mlm_targets, params)
    feat, n_obj = roi_feature_regression_loss(
        outputs.vis, packed.obj_mask_flags, packed.regression_targets, params, active_rows)
    label, _ = detected_label_loss(
        outputs.vis, packed.obj_mask_flags, packed.detected_labels, params, active_rows)
    match, n_match = match_loss(outputs.cls, packed.match_labels, params)
    qa, n_qa = qa_loss(outputs.cls, packed.answer_indices, packed.match_labels,
                       packed.is_question, params, qa_enabled)
    # the equal-weight sum is accumulated in float64 so the reported total
    # matches the recomputed sum of parts regardless of the training dtype
    mlm, feat, label, match, qa = (cast(t, np.float64) for t in (mlm, feat, label, match, qa))
    total = mlm + feat + label + match + qa
    return LossBundle(mlm, feat, label, match, qa, total,
                      mlm_count=n_mlm, obj_count=n_obj,
                      match_count=n_match, qa_count=n_qa)


# ---------------------------------------------------------------------------
# pairwise two-image head


def pairwise_logit(cls_0: Tensor, cls_1: Tensor, params: dict[str, Tensor],
                   ln_eps: float = 1e-12) -> Tensor:
    """Pre-sigmoid score of the two-image classifier.

    z0 = W0 [x0; x1] + b0;  z1 = LayerNorm(GeLU(z0));  logit = W1 z1 + b1.
    """
    if cls_0.shape != cls_1.shape:
        raise ValueError(f"pairwise inputs disagree: {cls_0.shape} vs {cls_1.shape}")
    w0 = params["pair.w0"]
    if 2 * cls_0.shape[-1] != w0.shape[0]:
        raise ValueError(
            f"pairwise head expects width {w0.shape[0] // 2}, got {cls_0.shape[-1]}"
        )
    joint = concat([cls_0, cls_1], axis=-1)
    z0 = matmul(joint, w0) + params["pair.b0"]
    z1 = layer_norm(gelu(z0), params["pair.ln.g"], params["pair.ln.b"], ln_eps)
    logit = matmul(z1, params["pair.w1"]) + params["pair.b1"]
    return logit.reshape((logit.shape[0],))


def pairwise_forward(cls_0: Tensor, cls_1: Tensor, params: dict[str, Tensor],
                     ln_eps: float = 1e-12) -> Tensor:
    """Probability that the statement matches the two images."""
    return sigmoid(pairwise_logit(cls_0, cls_1, params, ln_eps))


def pairwise_bce(logit: Tensor, labels: np.ndarray) -> Tensor:
    """Binary cross-entropy, computed on the logit for stability."""
    y = np.asarray(labels, dtype=logit.data.dtype)
    return tmean(softplus(logit) - logit * tensor(y, dtype=logit.data.dtype))
