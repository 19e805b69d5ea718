"""Adam with bias correction, a linear warmup/decay schedule, and gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


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
             total_steps: int, beta1: float = 0.9, beta2: float = 0.999,
             eps: float = 1e-8) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
            beta1=beta1, beta2=beta2, eps=eps,
            peak_lr=peak_lr, warmup_fraction=warmup_fraction, total_steps=total_steps,
        )


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray | None],
              state: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update, in place. Deterministic given inputs."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            raise ValueError(f"parameter {name!r} has no gradient")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def clip_gradients(params: dict[str, Tensor], max_norm: float | None) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if max_norm is not None and norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm
