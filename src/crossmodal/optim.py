"""Adam with bias correction, a linear warmup/decay schedule, and gradient clipping.

Flat layout: the parameters, their gradients and the Adam moments ``m`` and
``v`` are each views into one contiguous buffer (``tensor.arena``), in the
order of the parameter dict, so an update is a few whole-vector numpy ops
over slices of ``_CHUNK`` elements. The functions still take any dict:
parameters, gradients and moments that are not yet views of one buffer are
packed once, by rebinding ``.data``, ``.grad`` or the moment entry to a
view. A gradient dict handed to ``adam_step`` is only read, so arrays in it
that are not the parameters' packed gradients are gathered into a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, arena_of, pack

# elements per slice of a whole-vector update: the scratch it needs stays small
_CHUNK = 1 << 16


def lr_at_step(step: int, peak: float, warmup_fraction: float, total_steps: int) -> float:
    """Linear ramp 0 -> peak over the warmup, then linear decay peak -> 0.

    Steps beyond ``total_steps`` clamp to 0. The maximum equals ``peak``
    exactly at the warmup boundary.
    """
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if step >= total_steps:
        return 0.0
    warmup = warmup_fraction * total_steps
    if warmup > 0 and step <= warmup:
        return peak * step / warmup
    return peak * (total_steps - step) / (total_steps - warmup)


@dataclass
class OptimizerState:
    """Adam moments plus the schedule constants they were trained under."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    peak_lr: float = 1e-3
    warmup_fraction: float = 0.05
    total_steps: int = 1

    @classmethod
    def init(cls, params: dict[str, Tensor], peak_lr: float, warmup_fraction: float,
             total_steps: int) -> "OptimizerState":
        return cls(
            m=_zero_moments(params), v=_zero_moments(params),
            peak_lr=peak_lr, warmup_fraction=warmup_fraction, total_steps=total_steps,
        )


def _zero_moments(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    buf, views = pack([p.data for p in params.values()])
    buf.fill(0)
    return dict(zip(params, views))


def _packed(tensors: list[Tensor], attr: str) -> np.ndarray:
    """The buffer behind the tensors' ``attr`` arrays, packing and rebinding them if needed."""
    arrays = [getattr(t, attr) for t in tensors]
    buf = arena_of(arrays)
    if buf is None:
        buf, views = pack(arrays)
        for t, view in zip(tensors, views):
            setattr(t, attr, view)
    return buf


def _packed_moment(moments: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    arrays = [moments[k] for k in names]
    buf = arena_of(arrays)
    if buf is None:
        buf, views = pack(arrays)
        moments.update(zip(names, views))
    return buf


def _gathered_grads(params: dict[str, Tensor], grads: dict[str, np.ndarray | None]) -> np.ndarray:
    arrays = [grads.get(k) for k in params]
    buf = arena_of(arrays)
    if buf is not None:
        return buf
    for (name, p), g in zip(params.items(), arrays):
        if g is None:
            raise ValueError(f"parameter {name!r} has no gradient")
        if np.shape(g) != p.data.shape:
            raise ValueError(f"gradient of {name!r} has shape {np.shape(g)}, "
                             f"parameter has {p.data.shape}")
    return np.concatenate([np.ravel(g) for g in arrays])


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray | None],
              state: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update, in place. Deterministic given inputs."""
    state.step += 1
    if not params:
        return
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    b1, b2, eps = state.beta1, state.beta2, state.eps
    g = _gathered_grads(params, grads)
    names = list(params)
    p = _packed(list(params.values()), "data")
    m = _packed_moment(state.m, names)
    v = _packed_moment(state.v, names)
    scratch = np.empty((2, min(p.size, _CHUNK)), dtype=np.result_type(m, g))
    for lo in range(0, p.size, _CHUNK):
        pc, gc, mc, vc = (a[lo:lo + _CHUNK] for a in (p, g, m, v))
        t1, t2 = scratch[:, :pc.size]
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        mc *= b1
        np.multiply(gc, 1.0 - b1, out=t1)
        mc += t1
        vc *= b2
        np.multiply(gc, gc, out=t1)
        t1 *= 1.0 - b2
        vc += t1
        # p -= lr (m / c1) / (sqrt(v / c2) + eps)
        np.divide(mc, c1, out=t1)
        t1 *= lr
        np.divide(vc, c2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += eps
        t1 /= t2
        pc -= t1


def clip_gradients(params: dict[str, Tensor], max_norm: float | None) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping, summed in float64 one slice at a time.
    """
    tensors = [p for p in params.values() if p.grad is not None]
    if not tensors:
        return 0.0
    g = _packed(tensors, "grad")
    scratch = np.empty(min(g.size, _CHUNK), dtype=np.float64)
    total = 0.0
    for lo in range(0, g.size, _CHUNK):
        gc = g[lo:lo + _CHUNK]
        g64 = scratch[:gc.size]
        np.copyto(g64, gc)
        total += float(np.dot(g64, g64))
    norm = math.sqrt(total)
    if max_norm is not None and norm > max_norm and norm > 0:
        g *= max_norm / norm
    return norm
