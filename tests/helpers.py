"""Shared test oracles: central finite differences, gradient comparison, an
unmasked row built from raw arrays, and a single-pair forward pass."""

import numpy as np

from crossmodal.data import BatchRow, CrossModalBatch, Vocabulary, collate
from crossmodal.encoders import forward_batch
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
