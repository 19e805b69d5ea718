"""Dense float tensors on numpy storage with a reverse-mode differentiation tape.

Forward passes record primitive applications on the active ``Tape``;
``backward(loss)`` replays the records in reverse order, accumulating
gradients into every tensor that requires them. A tape is a single-use
object: open one per forward pass, run backward once, discard it.

Every ``x @ W + b`` projection goes through ``linear``: one record, and a
backward of three 2-D GEMM-shaped products over the flattened rows.
``matmul`` is left for products of two activations (attention scores and
mixing).

Gradient ownership: a leaf (a tensor no record produced, i.e. a parameter)
owns its ``grad`` array. ``backward`` adds into the buffer ``zero_grads``
gave it, in place, or stores a copy of its first gradient, so scaling a
leaf's gradient in place (as ``clip_gradients`` does) never reaches another
tensor. An intermediate takes its first gradient by reference -- it may be
another tensor's gradient or a view of one -- and any later gradient is
added out of place, so no shared array is ever written.

Two numeric modes are supported: float32 (training default) and float64
(used by gradient-check tests, where finite differences need the extra
precision). Switch with the ``using_dtype`` context manager.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_DEFAULT_DTYPE = np.float32
_TAPE_STACK: list["Tape"] = []

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def using_dtype(dtype):
    """Temporarily change the dtype used by tensor factories."""
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = np.dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous


class Tensor:
    """A dense n-dimensional float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # Arithmetic operators delegate to the recorded primitives below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, 1.0 / other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Every record holds the output tensor, the input tensors, and a backward
    rule mapping the output gradient to per-input gradients. Inputs always
    precede their consumers, so one reverse sweep is a valid topological
    backward order.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def __len__(self):
        return len(self.records)


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _as_tensor(x, like: np.ndarray | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else _DEFAULT_DTYPE
    return Tensor(np.asarray(x, dtype=dtype))


def _apply(out_data: np.ndarray, inputs: tuple[Tensor, ...], rule) -> Tensor:
    """Wrap a primitive result, recording it when gradients are needed."""
    tape = active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        out._tape = tape
        tape.records.append((out, inputs, rule))
    return out


def backward(loss: Tensor) -> None:
    """Populate gradients of ``loss`` w.r.t. every tracked tensor.

    The loss must be scalar. The sweep visits the recording tape once in
    reverse order and clears it afterwards; the gradient of the loss with
    respect to itself is 1. Gradients follow the ownership rule in the
    module docstring.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    tape = loss._tape
    if tape is None or not tape.records:
        raise ValueError("loss is not attached to a tape; nothing was recorded")
    loss.grad = np.ones_like(loss.data)
    for out, inputs, rule in reversed(tape.records):
        if out.grad is None:
            continue
        grads = rule(out.grad)
        for t, g in zip(inputs, grads):
            if g is None or not t.requires_grad:
                continue
            if t._tape is None:  # leaf: owns its buffer
                if t.grad is None:
                    t.grad = np.array(g, dtype=t.data.dtype)
                else:
                    t.grad += g
            elif t.grad is None:
                t.grad = g
            else:
                t.grad = t.grad + g
    tape.records.clear()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)
    return Tensor(arr, requires_grad=requires_grad)


def add(a, b) -> Tensor:
    a = _as_tensor(a, like=b.data if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a.data)
    out = a.data + b.data

    def rule(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _apply(out, (a, b), rule)


def sub(a, b) -> Tensor:
    a = _as_tensor(a, like=b.data if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a.data)
    out = a.data - b.data

    def rule(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _apply(out, (a, b), rule)


def mul(a, b) -> Tensor:
    a = _as_tensor(a, like=b.data if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a.data)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def rule(g):
        ga = _unbroadcast(g * bd, ad.shape) if a.requires_grad else None
        gb = _unbroadcast(g * ad, bd.shape) if b.requires_grad else None
        return ga, gb

    return _apply(out, (a, b), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with broadcastable batch dimensions.

    Backward accumulates dA = dC @ B^T and dB = A^T @ dC, reduced over any
    broadcast batch axes.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(
            f"matmul needs at least 2-d operands, got shapes {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def rule(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        if b.requires_grad:
            gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
        return ga, gb

    return _apply(out, (a, b), rule)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for (..., d_in) rows, a (d_in, d_out) weight and a (d_out,) bias.

    The leading axes are flattened so forward and backward are 2-D GEMMs:
    dX = dY W^T, dW = X^T dY, db = sum of dY over rows. Each is computed
    only for an input that requires a gradient.
    """
    x = _as_tensor(x)
    w = _as_tensor(w)
    b = _as_tensor(b, like=x.data)
    d_in, d_out = w.data.shape
    if x.data.shape[-1] != d_in or b.data.shape != (d_out,):
        raise ValueError(
            f"linear shapes disagree: x {x.data.shape}, w {w.data.shape}, b {b.data.shape}"
        )
    x2, wd = x.data.reshape(-1, d_in), w.data
    out = x2 @ wd
    out += b.data
    shape = x.data.shape

    def rule(g):
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ wd.T).reshape(shape) if x.requires_grad else None
        gw = x2.T @ g2 if w.requires_grad else None
        gb = g2.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return _apply(out.reshape(shape[:-1] + (d_out,)), (x, w, b), rule)


def reshape(t: Tensor, shape) -> Tensor:
    t = _as_tensor(t)
    out = t.data.reshape(shape)
    old = t.data.shape

    def rule(g):
        return (g.reshape(old),)

    return _apply(out, (t,), rule)


def transpose(t: Tensor, axes) -> Tensor:
    t = _as_tensor(t)
    axes = tuple(axes)
    out = t.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def rule(g):
        return (g.transpose(inverse),)

    return _apply(out, (t,), rule)


def getitem(t: Tensor, idx) -> Tensor:
    t = _as_tensor(t)
    out = t.data[idx]
    shape = t.data.shape

    def rule(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(full, idx, g)
        return (full,)

    return _apply(out, (t,), rule)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def rule(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _apply(out, tuple(tensors), rule)


def tsum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    t = _as_tensor(t)
    out = t.data.sum(axis=axis, keepdims=keepdims)
    shape = t.data.shape

    def rule(g):
        if axis is None:
            return (np.broadcast_to(g, shape).astype(g.dtype, copy=True),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).astype(g.dtype, copy=True),)

    return _apply(out, (t,), rule)


def tmean(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    t = _as_tensor(t)
    out = t.data.mean(axis=axis, keepdims=keepdims)
    shape = t.data.shape
    count = t.data.size if axis is None else (
        np.prod([shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
    )

    def rule(g):
        if axis is None:
            full = np.broadcast_to(g, shape)
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            full = np.broadcast_to(gg, shape)
        return ((full / count).astype(g.dtype, copy=False),)

    return _apply(out, (t,), rule)


def softmax(scores: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax over the last axis, numerically stabilized.

    ``mask`` marks context positions to keep (True). Masked positions get
    exactly zero weight. A row with no unmasked position is an error.
    """
    scores = _as_tensor(scores)
    x = scores.data
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape[-1] != x.shape[-1]:
            raise ValueError(
                f"softmax mask last axis {m.shape} does not match scores {x.shape}"
            )
        if not m.any(axis=-1).all():
            raise ValueError("softmax encountered a fully masked row")
        x = np.where(m, x, -np.inf)
    mx = x.max(axis=-1, keepdims=True)
    e = np.exp(x - mx)
    y = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _apply(y, (scores,), rule)


def log_softmax(logits: Tensor) -> Tensor:
    logits = _as_tensor(logits)
    x = logits.data
    mx = x.max(axis=-1, keepdims=True)
    shifted = x - mx
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    p = np.exp(y)

    def rule(g):
        return (g - p * g.sum(axis=-1, keepdims=True),)

    return _apply(y, (logits,), rule)


def take_rows(t: Tensor, column_ids: np.ndarray) -> Tensor:
    """Gather one column per row: out[i] = t[i, column_ids[i]]."""
    t = _as_tensor(t)
    ids = np.asarray(column_ids)
    n, c = t.data.shape
    if ids.size and (ids.min() < 0 or ids.max() >= c):
        bad = ids[(ids < 0) | (ids >= c)][0]
        raise IndexError(f"column id {bad} out of range [0, {c})")
    rows = np.arange(n)
    out = t.data[rows, ids]

    def rule(g):
        full = np.zeros((n, c), dtype=g.dtype)
        full[rows, ids] = g
        return (full,)

    return _apply(out, (t,), rule)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather table rows by id; backward scatter-adds into the table gradient."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    vocab = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = ids.reshape(-1)[np.argmax((ids < 0) | (ids >= vocab))]
        raise IndexError(f"embedding id {bad} out of range [0, {vocab})")
    out = table.data[ids]
    shape = table.data.shape

    def rule(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, shape[-1]))
        return (full,)

    return _apply(out, (table,), rule)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    x = _as_tensor(x)
    gain = _as_tensor(gain, like=x.data)
    bias = _as_tensor(bias, like=x.data)
    d = x.data.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise ValueError("layer_norm over an empty last axis")
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data
    gd = gain.data

    def rule(g):
        gx = ggain = gbias = None
        if x.requires_grad:
            dxhat = g * gd
            gx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
        if gain.requires_grad:
            ggain = (g * xhat).reshape(-1, d).sum(axis=0).reshape(gd.shape)
        if bias.requires_grad:
            gbias = g.reshape(-1, d).sum(axis=0).reshape(bias.data.shape)
        return gx, ggain, gbias

    return _apply(out, (x, gain, bias), rule)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    x = _as_tensor(x)
    xd = x.data
    # x*x*x, not x**3: float32 ** goes through numpy's generic power loop
    x2 = xd * xd
    inner = _GELU_C * (xd + _GELU_A * (x2 * xd))
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)

    def rule(g):
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t**2) * dinner),)

    return _apply(out, (x,), rule)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    y[~pos] = ex / (1.0 + ex)

    def rule(g):
        return (g * y * (1.0 - y),)

    return _apply(y, (x,), rule)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow."""
    x = _as_tensor(x)
    xd = x.data
    out = np.maximum(xd, 0.0) + np.log1p(np.exp(-np.abs(xd)))
    sig = np.empty_like(xd)
    pos = xd >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    sig[~pos] = ex / (1.0 + ex)

    def rule(g):
        return (g * sig,)

    return _apply(out, (x,), rule)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Zero elements with probability ``rate`` and rescale survivors.

    Identity in eval mode and at rate 0. Deterministic under a fixed rng.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    keep /= 1.0 - rate
    out = x.data * keep

    def rule(g):
        return (g * keep,)

    return _apply(out, (x,), rule)


def cast(t: Tensor, dtype) -> Tensor:
    """Change dtype; the gradient is cast back on the way down."""
    t = _as_tensor(t)
    dtype = np.dtype(dtype)
    if t.data.dtype == dtype:
        return t
    out = t.data.astype(dtype)
    src = t.data.dtype

    def rule(g):
        return (g.astype(src),)

    return _apply(out, (t,), rule)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.zero_grad()
