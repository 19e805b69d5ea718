"""Dense float tensors on numpy storage with a reverse-mode differentiation tape.

Forward passes record primitive applications on the active ``Tape``;
``backward(loss)`` pops the records in reverse order, accumulating
gradients into every tensor that requires them. A tape is a single-use
object: open one per forward pass, run backward once, discard it.

The model's records are few and large: a pre-training step of the desk
model (3/2/2 layers, all five losses on) holds 88 of them, 35 per encoder
forward. Each encoder layer records, per sub-layer:

- ``attention``: q/k/v projections, head split, scaled scores, masked
  softmax, dropout on the probabilities, mixing product and head merge,
  with a hand-written backward. It keeps the projected heads, the softmax
  weights and the dropout mask.
- ``residual_layer_norm``: ``layer_norm(x + dropout(h @ wo + bo))`` on the
  attention record's merged heads ``h``, which it reads again for dWo.
- ``feed_forward``: ``layer_norm(x + dropout(linear(gelu(linear(x)))))``.
  It keeps the flattened input and the pre-activation only, and backward
  recomputes the tanh and the GELU output from it with the forward's exact
  ops, which is cheaper than storing them.

The two residual records write the projection or block output into the
buffer that becomes xhat, so no sub-layer output outlives its forward; they
keep the dropout mask, xhat and the per-row 1/std. Every ``x @ W + b``
elsewhere is one ``linear`` record, whose backward is three 2-D GEMMs over
the flattened rows and which keeps nothing beyond its inputs. The
embeddings and heads record a few small ops (``embedding_lookup``, ``add``,
``layer_norm``, ``gelu``, ...).

A dropout mask is kept as ``bool`` plus the scalar 1/(1 - rate). Each
value still rounds once, as a product with a float mask of 0 and scale
would, so the values match a float mask bit for bit at an eighth (float64)
or a quarter (float32) of its memory. ``matmul``, ``softmax``, ``dropout``,
``gelu`` and ``layer_norm`` stay general primitives, and the tests compose
them as the reference for the fused records.

Row reductions go through four helpers, because the model's rows are short
(8-16 context positions, 64 features) and numpy's reduce along the last
axis runs one short loop per row. ``_row_max`` reduces a transposed copy
of the rows column by column, which is exact. ``_row_sum`` (the softmax
normaliser and its backward row sum) is one GEMV against a float64 ones
vector rounded once to the row dtype, so reordering a row almost never
changes it. ``_row_mean`` (layer-norm means) and ``_col_sum`` (bias and gain
gradients) are one GEMV in the row dtype. ``softmax`` and ``log_softmax``
use them too, so composed references round as the fused records do.

The backward sweep frees as it goes: it pops each record, runs its rule on
the output's gradient, then drops that gradient and the record. A record's
activations and an intermediate's gradient therefore live only until
nothing later in the sweep reads them, and a step's working set stays near
what the tape held when backward began.

Gradient ownership: a leaf (a tensor no record produced, i.e. a parameter)
owns its ``grad`` array and keeps it after ``backward``; an intermediate
holds no gradient once ``backward`` returns. ``zero_grads`` makes every
leaf's gradient a view into one flat arena buffer (``arena``), laid out in
the parameter dict's order; ``backward`` adds into that view in place, or
stores a copy of a first gradient when there is no view, so scaling a
leaf's gradient in place (as ``clip_gradients`` does, on the whole arena at
once) never reaches another tensor. During the sweep an intermediate takes
its first gradient by reference -- it may be another tensor's gradient or a
view of one -- and any later gradient is added out of place, so no shared
array is ever written, and no backward rule writes into the gradient it
receives.

Two numeric modes are supported: float32 (training default) and float64
(used by gradient-check tests, where finite differences need the extra
precision). Switch with the ``using_dtype`` context manager.
"""

from __future__ import annotations

import functools
import math
import weakref
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
    """Populate gradients of ``loss`` w.r.t. every leaf that requires them.

    The loss must be scalar; its gradient with respect to itself is 1. The
    sweep pops the recording tape's records in reverse order. Each record's
    rule runs on its output's gradient, which is then dropped with the
    record, so the tape is empty afterwards and only leaves hold gradients.
    Gradients follow the ownership rule in the module docstring.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    tape = loss._tape
    if tape is None or not tape.records:
        raise ValueError("loss is not attached to a tape; nothing was recorded")
    loss.grad = np.ones_like(loss.data)
    records = tape.records
    while records:
        out, inputs, rule = records.pop()
        g_out, out.grad = out.grad, None
        if g_out is None:
            continue
        for t, g in zip(inputs, rule(g_out)):
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
# row and column reductions


@functools.lru_cache(maxsize=64)
def _filled(n: int, value: float, dtype) -> np.ndarray:
    """A read-only (n,) array of ``value`` in ``dtype``, shared between calls."""
    out = np.full(n, value, dtype=dtype)
    out.flags.writeable = False
    return out


def _rows(y: np.ndarray) -> np.ndarray:
    return y.reshape(-1, y.shape[-1])


def _keep_rows(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One value per row of ``y`` as an array of ``y``'s shape with a last axis of 1."""
    return r.reshape(y.shape[:-1] + (1,))


def _row_max(y: np.ndarray) -> np.ndarray:
    """``y.max(axis=-1, keepdims=True)``, from a column reduction of the transposed rows.

    Max does not round, so this is exact. The rows are copied transposed so
    numpy's reduce loop runs along them instead of once per (short) row.
    """
    return _keep_rows(np.ascontiguousarray(_rows(y).T).max(axis=0), y)


def _row_sum(y: np.ndarray) -> np.ndarray:
    """``y.sum(axis=-1, keepdims=True)``, accumulated in float64 by one GEMV and
    rounded once to ``y``'s dtype.

    float64 holds the partial sums of a short float32 row exactly unless its
    terms span more than about 25 binades, so reordering a row almost never
    changes the result.
    """
    ones = _filled(y.shape[-1], 1.0, np.float64)
    return _keep_rows((_rows(y) @ ones).astype(y.dtype, copy=False), y)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` as one GEMV against a 1/d vector in ``x``'s dtype."""
    d = x.shape[-1]
    return _keep_rows(_rows(x) @ _filled(d, 1.0 / d, x.dtype), x)


def _col_sum(g2: np.ndarray) -> np.ndarray:
    """``g2.sum(axis=0)`` of a 2-D gradient as one GEMV, ``ones @ g2``."""
    return _filled(g2.shape[0], 1.0, g2.dtype) @ g2


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
    x2 = x.data.reshape(-1, d_in)
    out = x2 @ w.data
    out += b.data

    def rule(g):
        return _linear_grads(g.reshape(-1, d_out), x2, x, w, b)

    return _apply(out.reshape(x.data.shape[:-1] + (d_out,)), (x, w, b), rule)


def _linear_grads(g2: np.ndarray, x2: np.ndarray, x: Tensor, w: Tensor, b: Tensor):
    """dX, dW and db of ``x2 @ w + b`` for the flattened rows ``x2`` of ``x`` and the
    flattened output gradient ``g2``, each None where its input needs no gradient."""
    gx = (g2 @ w.data.T).reshape(x.data.shape) if x.requires_grad else None
    gw = x2.T @ g2 if w.requires_grad else None
    gb = _col_sum(g2) if b.requires_grad else None
    return gx, gw, gb


def attention(query: Tensor, context: Tensor, wq: Tensor, bq: Tensor, wk: Tensor,
              bk: Tensor, wv: Tensor, bv: Tensor, num_heads: int,
              mask: np.ndarray | None = None, rate: float = 0.0,
              rng: np.random.Generator | None = None,
              training: bool = False) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention up to the output projection, as one record.

    ``query`` is (B, q, d), ``context`` (B, c, d), each ``w`` (d, d) and
    each ``b`` (d,). The record covers the q/k/v projections, the head
    split, the scores scaled by 1/sqrt(d / num_heads), the softmax over the
    context positions where ``mask`` (B, c) is True, dropout at ``rate`` on
    the probabilities (one ``rng.random((B, h, q, c))`` draw, as
    ``dropout``), the mixing product and the head merge. Returns the merged
    heads (B, q, d) and the pre-dropout weights (B, h, q, c). A mask with
    no False entry is applied as no mask; a query row with no unmasked
    position is an error. The backward is written out by hand; when
    ``query`` is ``context`` their gradient is returned once.
    """
    query, context = _as_tensor(query), _as_tensor(context)
    proj = [_as_tensor(t, like=query.data) for t in (wq, bq, wk, bk, wv, bv)]
    b, q, d = query.data.shape
    c = context.data.shape[1]
    h = num_heads
    if (context.data.shape != (b, c, d) or d % h
            or any(t.data.shape != ((d, d) if i % 2 == 0 else (d,)) for i, t in enumerate(proj))):
        raise ValueError(
            f"attention shapes disagree: query {query.data.shape}, context {context.data.shape}, "
            f"projections {[t.data.shape for t in proj]}, {h} heads"
        )
    keep_ctx = None
    if mask is not None:
        keep_ctx = np.asarray(mask, dtype=bool).reshape(b, 1, 1, c)
        if keep_ctx.all():
            keep_ctx = None
        elif not keep_ctx.any(axis=-1).all():
            raise ValueError("attention encountered a fully masked row")
    dk = d // h
    scale = 1.0 / math.sqrt(dk)
    xq, xc = query.data.reshape(-1, d), context.data.reshape(-1, d)

    def heads(x, w, bias, n):
        y = x @ w.data
        y += bias.data
        return y.reshape(b, n, h, dk).transpose(0, 2, 1, 3)

    qh = heads(xq, *proj[0:2], q)
    kh = heads(xc, *proj[2:4], c)
    vh = heads(xc, *proj[4:6], c)
    y = qh @ kh.transpose(0, 1, 3, 2)
    y *= scale
    if keep_ctx is not None:
        np.copyto(y, -np.inf, where=~keep_ctx)
    y -= _row_max(y)
    np.exp(y, out=y)
    y /= _row_sum(y)
    keep = _keep_mask(y, rate, rng, training)

    def dropped(p):
        return p if keep is None else _scale_keep(p, *keep)

    out = (dropped(y) @ vh).transpose(0, 2, 1, 3).reshape(b, q, d)
    shared = query is context

    def rule(g):
        def merged(x, n):
            return x.transpose(0, 2, 1, 3).reshape(b * n, d)

        gh = g.reshape(b, q, h, dk).transpose(0, 2, 1, 3)
        gv = merged(dropped(y).transpose(0, 1, 3, 2) @ gh, c)
        ga = gh @ vh.transpose(0, 1, 3, 2)
        if keep is not None:
            ga *= keep[1]
            ga *= keep[0]
        # softmax backward, then the score scale, in place on the fresh ga
        ga -= _row_sum(ga * y)
        ga *= y
        ga *= scale
        gq = merged(ga @ kh, q)
        gk = merged(ga.transpose(0, 1, 3, 2) @ qh, c)
        gxq = gq @ proj[0].data.T if query.requires_grad else None
        gxc = None
        if context.requires_grad:
            gxc = gk @ proj[2].data.T
            gxc += gv @ proj[4].data.T
            if shared:
                gxq, gxc = gxc + gxq, None
        grads = [None if gxq is None else gxq.reshape(b, q, d),
                 None if gxc is None else gxc.reshape(b, c, d)]
        for x, gy, (w, bias) in ((xq, gq, proj[0:2]), (xc, gk, proj[2:4]), (xc, gv, proj[4:6])):
            grads.append(x.T @ gy if w.requires_grad else None)
            grads.append(_col_sum(gy) if bias.requires_grad else None)
        return tuple(grads)

    return _apply(out, (query, context, *proj), rule), y


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
    e = np.exp(x - _row_max(x))
    y = e / _row_sum(e)

    def rule(g):
        return (y * (g - _row_sum(g * y)),)

    return _apply(y, (scores,), rule)


def log_softmax(logits: Tensor) -> Tensor:
    logits = _as_tensor(logits)
    x = logits.data
    shifted = x - _row_max(x)
    lse = np.log(_row_sum(np.exp(shifted)))
    y = shifted - lse
    p = np.exp(y)

    def rule(g):
        return (g - p * _row_sum(g),)

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


def _check_layer_norm(x: np.ndarray, eps: float) -> None:
    if (x.shape[-1] if x.ndim else 0) == 0:
        raise ValueError("layer_norm over an empty last axis")
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")


def _normalize(xc: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Layer norm of rows already centred, ``xc``, which becomes xhat in place.

    Returns the output ``xhat * gain + bias`` and the per-row 1/std.
    """
    out = xc * xc
    inv = 1.0 / np.sqrt(_row_mean(out) + eps)
    xc *= inv
    np.multiply(xc, gain, out=out)
    out += bias
    return out, inv


def _layer_norm_grads(g, xhat, inv, gain: Tensor, bias: Tensor, want_x: bool):
    """Gradients of ``xhat * gain + bias`` w.r.t. the normalized input, gain and bias."""
    d = xhat.shape[-1]
    gx = ggain = gbias = None
    if gain.requires_grad:
        ggain = _col_sum((g * xhat).reshape(-1, d)).reshape(gain.data.shape)
    if bias.requires_grad:
        gbias = _col_sum(g.reshape(-1, d)).reshape(bias.data.shape)
    if want_x:
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in place on fresh arrays
        gx = g * gain.data
        tmp = gx * xhat
        m = _row_mean(tmp)
        gx -= _row_mean(gx)
        np.multiply(xhat, m, out=tmp)
        gx -= tmp
        gx *= inv
    return gx, ggain, gbias


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias.

    The record keeps xhat and the per-row 1/std.
    """
    x = _as_tensor(x)
    gain = _as_tensor(gain, like=x.data)
    bias = _as_tensor(bias, like=x.data)
    _check_layer_norm(x.data, eps)
    xhat = x.data - _row_mean(x.data)
    out, inv = _normalize(xhat, gain.data, bias.data, eps)

    def rule(g):
        return _layer_norm_grads(g, xhat, inv, gain, bias, x.requires_grad)

    return _apply(out, (x, gain, bias), rule)


def _residual(x: Tensor, sub: np.ndarray, gain: Tensor, bias: Tensor, eps: float,
              rate: float, rng: np.random.Generator | None, training: bool):
    """``layer_norm(x + dropout(sub))`` for a fresh ``sub`` buffer, which becomes xhat.

    It draws the same mask as ``dropout`` (one ``rng.random(sub.shape)``,
    only in training mode at a rate above 0) and keeps it as ``bool`` with
    the scalar 1/(1 - rate), beside xhat and the per-row 1/std. Returns the
    output and ``grads(g)``: the sum's gradient, which ``x`` takes as it is,
    ``sub``'s, through the mask, and the gain's and the bias's.
    """
    keep = _keep_mask(sub, rate, rng, training)
    if keep is not None:
        sub *= keep[1]
        sub *= keep[0]
    sub += x.data
    sub -= _row_mean(sub)
    out, inv = _normalize(sub, gain.data, bias.data, eps)

    def grads(g):
        gs, ggain, gbias = _layer_norm_grads(g, sub, inv, gain, bias, True)
        return gs, gs if keep is None else _scale_keep(gs, *keep), ggain, gbias

    return out, grads


def _ln_params(x: Tensor, gain, bias, eps: float) -> tuple[Tensor, Tensor]:
    _check_layer_norm(x.data, eps)
    return _as_tensor(gain, like=x.data), _as_tensor(bias, like=x.data)


def residual_layer_norm(x: Tensor, h: Tensor, wo: Tensor, bo: Tensor, gain: Tensor,
                        bias: Tensor, eps: float, rate: float,
                        rng: np.random.Generator | None, training: bool) -> Tensor:
    """``layer_norm(x + dropout(linear(h, wo, bo), rate, rng, training), gain, bias, eps)``
    as one record: an attention sub-layer's output projection and residual tail.

    ``h`` is the attention record's merged heads, (..., d), and the
    projection ``h @ wo + bo`` is written into the buffer that becomes
    xhat, so it is never kept. The record keeps the dropout mask, xhat and
    the per-row 1/std beside its inputs; backward reads ``h`` for dWo.
    """
    x, h, wo = _as_tensor(x), _as_tensor(h), _as_tensor(wo)
    bo = _as_tensor(bo, like=x.data)
    gain, bias = _ln_params(x, gain, bias, eps)
    d_in, d_out = wo.data.shape
    if (h.data.shape[-1] != d_in or bo.data.shape != (d_out,)
            or h.data.shape[:-1] + (d_out,) != x.data.shape):
        raise ValueError(f"residual shapes disagree: x {x.data.shape}, h {h.data.shape}, "
                         f"wo {wo.data.shape}, bo {bo.data.shape}")
    h2 = h.data.reshape(-1, d_in)
    sub = h2 @ wo.data
    sub += bo.data
    out, grads = _residual(x, sub.reshape(x.data.shape), gain, bias, eps, rate, rng, training)

    def rule(g):
        gs, gsub, ggain, gbias = grads(g)
        return (gs, *_linear_grads(gsub.reshape(-1, d_out), h2, h, wo, bo), ggain, gbias)

    return _apply(out, (x, h, wo, bo, gain, bias), rule)


def _gelu_tanh(h: np.ndarray) -> np.ndarray:
    """tanh(c * (h + a * h^3)) in one fresh array."""
    # h*h*h, not h**3: float32 ** goes through numpy's generic power loop
    t = h * h
    t *= h
    t *= _GELU_A
    t += h
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU (0.5 * h) * (1 + t) for t = _gelu_tanh(h), in a fresh array; t is left as it is."""
    out = h * 0.5
    out *= t + 1.0
    return out


def _gelu_grad(h: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g`` times the GELU derivative at ``h``, for t = _gelu_tanh(h); overwrites t.

    The derivative is 0.5 * (1 + t) + ((0.5 * h) * (1 - t^2)) * c * (1 + 3a * h^2).
    """
    out = t + 1.0
    out *= 0.5
    np.multiply(t, t, out=t)
    np.subtract(1.0, t, out=t)
    q = h * 0.5
    q *= t
    np.multiply(h, h, out=t)
    t *= 3.0 * _GELU_A
    t += 1.0
    t *= _GELU_C
    q *= t
    out += q
    out *= g
    return out


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation.

    The record keeps nothing but its input; backward recomputes the tanh.
    """
    x = _as_tensor(x)
    xd = x.data

    def rule(g):
        return (_gelu_grad(xd, _gelu_tanh(xd), g),)

    return _apply(_gelu(xd, _gelu_tanh(xd)), (x,), rule)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, gain: Tensor,
                 bias: Tensor, eps: float, rate: float, rng: np.random.Generator | None,
                 training: bool) -> Tensor:
    """``layer_norm(x + dropout(linear(gelu(linear(x, w1, b1)), w2, b2), rate, rng,
    training), gain, bias, eps)`` as one record: a feed-forward sub-layer.

    The block's output is written into the buffer that becomes xhat. The
    record keeps the flattened input, the pre-activation h, the dropout
    mask, xhat and the per-row 1/std. Backward recomputes the tanh and the
    GELU output from h with the forward's ops, so every value matches the
    composed primitives bit for bit.
    """
    x = _as_tensor(x)
    w1, w2 = _as_tensor(w1), _as_tensor(w2)
    b1, b2 = _as_tensor(b1, like=x.data), _as_tensor(b2, like=x.data)
    gain, bias = _ln_params(x, gain, bias, eps)
    d_in, d_ff = w1.data.shape
    if (x.data.shape[-1] != d_in or b1.data.shape != (d_ff,)
            or w2.data.shape != (d_ff, d_in) or b2.data.shape != (d_in,)):
        raise ValueError(
            f"feed_forward shapes disagree: x {x.data.shape}, w1 {w1.data.shape}, "
            f"b1 {b1.data.shape}, w2 {w2.data.shape}, b2 {b2.data.shape}")
    x2 = x.data.reshape(-1, d_in)
    h = x2 @ w1.data
    h += b1.data
    sub = _gelu(h, _gelu_tanh(h)) @ w2.data
    sub += b2.data
    out, grads = _residual(x, sub.reshape(x.data.shape), gain, bias, eps, rate, rng, training)

    def rule(g):
        gs, gsub, ggain, gbias = grads(g)
        g2 = gsub.reshape(-1, d_in)
        t = _gelu_tanh(h)
        gw2 = _gelu(h, t).T @ g2 if w2.requires_grad else None
        gb2 = _col_sum(g2) if b2.requires_grad else None
        gh = _gelu_grad(h, t, g2 @ w2.data.T)
        gx = None
        if x.requires_grad:
            gx = (gh @ w1.data.T).reshape(x.data.shape)
            gx += gs
        gw1 = x2.T @ gh if w1.requires_grad else None
        gb1 = _col_sum(gh) if b1.requires_grad else None
        return gx, gw1, gb1, gw2, gb2, ggain, gbias

    return _apply(out, (x, w1, b1, w2, b2, gain, bias), rule)


def _logistic(xd: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-x)), with exp taken only of non-positive values."""
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = _logistic(x.data)

    def rule(g):
        return (g * y * (1.0 - y),)

    return _apply(y, (x,), rule)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow."""
    x = _as_tensor(x)
    xd = x.data
    out = np.maximum(xd, 0.0) + np.log1p(np.exp(-np.abs(xd)))
    sig = _logistic(xd)

    def rule(g):
        return (g * sig,)

    return _apply(out, (x,), rule)


def _keep_mask(like: np.ndarray, rate: float, rng: np.random.Generator | None, training: bool):
    """The dropout draw for an array like ``like``, or None in eval mode and at rate 0.

    The draw is the keep mask ``rng.random(like.shape) >= rate`` as ``bool``
    and the survivors' scale 1/(1 - rate) in the array's dtype.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    return rng.random(like.shape) >= rate, like.dtype.type(1.0) / like.dtype.type(1.0 - rate)


def _scale_keep(a: np.ndarray, mask: np.ndarray, scale) -> np.ndarray:
    """``a * scale`` where ``mask`` holds and a signed zero elsewhere, in a fresh array.

    Each value rounds once, as a product with a float mask of 0 and scale would.
    """
    out = a * scale
    out *= mask
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Zero elements with probability ``rate`` and rescale survivors.

    Identity in eval mode and at rate 0. Deterministic under a fixed rng.
    The record keeps the mask as ``bool`` and the scale as one scalar.
    """
    x = _as_tensor(x)
    keep = _keep_mask(x.data, rate, rng, training)
    if keep is None:
        return x

    def rule(g):
        return (_scale_keep(g, *keep),)

    return _apply(_scale_keep(x.data, *keep), (x,), rule)


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


# ---------------------------------------------------------------------------
# flat arena

# id of an arena buffer -> ids of its views, in order, so arena_of confirms a
# layout, order included, by comparing ids (reading each view's address would
# cost about a microsecond per view); an entry lives as long as its buffer
_ARENA_VIEWS: dict[int, tuple[int, ...]] = {}


def arena_of(arrays: list) -> np.ndarray | None:
    """The buffer ``arrays`` are the consecutive views of, in order, or None.

    Only buffers made by ``arena`` count, and only with the views it made, in
    the order it made them. The ids of views that died can be reused, so
    every array must also still view the buffer.
    """
    base = getattr(arrays[0], "base", None) if arrays else None
    if (base is None or _ARENA_VIEWS.get(id(base)) != tuple(map(id, arrays))
            or any(a.base is not base for a in arrays)):
        return None
    return base


def arena(shapes: list[tuple[int, ...]], dtype) -> tuple[np.ndarray, list[np.ndarray]]:
    """A new, uninitialized 1-D buffer and its consecutive views, one per shape, in order."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = np.empty(sum(sizes), dtype=dtype)
    views, offset = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(buf[offset:offset + size].reshape(shape))
        offset += size
    _ARENA_VIEWS[id(buf)] = tuple(map(id, views))
    weakref.finalize(buf, _ARENA_VIEWS.pop, id(buf), None)
    return buf, views


def pack(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copies of ``arrays``, which must share one dtype, as the views of a new arena."""
    dtypes = {a.dtype for a in arrays}
    if len(dtypes) != 1:
        raise ValueError(f"cannot pack arrays of dtypes {sorted(map(str, dtypes))} into one buffer")
    buf, views = arena([a.shape for a in arrays], dtypes.pop())
    for view, a in zip(views, arrays):
        view[...] = a
    return buf, views


def zero_grads(params: dict[str, Tensor]) -> None:
    """Zero every gradient; the gradients become views of one arena buffer."""
    tensors = list(params.values())
    if not tensors:
        return
    buf = arena_of([p.grad for p in tensors])
    if buf is None:
        buf, views = pack([p.data for p in tensors])
        for p, view in zip(tensors, views):
            p.grad = view
    buf.fill(0)
