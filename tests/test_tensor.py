"""Tensor engine: primitive semantics, error cases, and gradient checks.

All gradient checks run in float64 with central differences (h=1e-5) and a
1e-4 relative tolerance where the analytic gradient is significant.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from crossmodal.tensor import (
    Tape,
    Tensor,
    _col_sum,
    _row_max,
    _row_mean,
    _row_sum,
    arena_of,
    attention,
    backward,
    concat,
    dropout,
    embedding_lookup,
    feed_forward,
    gelu,
    getitem,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    residual_layer_norm,
    sigmoid,
    softmax,
    softplus,
    take_rows,
    tensor,
    tmean,
    transpose,
    tsum,
    using_dtype,
    zero_grads,
)

from helpers import gradcheck, numeric_grad, assert_grads_close


def f64(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = tensor([[1.0, 0.0], [0.0, 1.0]])
    b = tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.allclose(matmul(a, b).data, [[3, 4], [5, 6]])


def test_matmul_dot():
    out = matmul(tensor([[1.0, 2.0]]), tensor([[3.0], [4.0]]))
    assert np.allclose(out.data, [[11.0]])


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 2))))


def test_matmul_gradcheck():
    rng = np.random.default_rng(0)
    with using_dtype(np.float64):
        a = f64(rng.normal(size=(3, 4)))
        b = f64(rng.normal(size=(4, 2)))
        gradcheck(lambda: tsum(matmul(a, b)), {"a": a, "b": b})


def test_matmul_batched_gradcheck():
    rng = np.random.default_rng(1)
    with using_dtype(np.float64):
        a = f64(rng.normal(size=(2, 3, 4)))
        b = f64(rng.normal(size=(4, 5)))  # broadcast over the batch axis
        gradcheck(lambda: tsum(matmul(a, b) * matmul(a, b)), {"a": a, "b": b})


# ---------------------------------------------------------------------------
# linear


@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)], ids=["2d", "3d"])
@pytest.mark.parametrize("tracked", [t for t in itertools.product((True, False), repeat=3)
                                     if any(t)],
                         ids=lambda t: "".join("xwb"[i] for i in range(3) if t[i]))
def test_linear_gradcheck(x_shape, tracked):
    rng = np.random.default_rng(2)
    with using_dtype(np.float64):
        x, w, b = (f64(rng.normal(size=shape), requires_grad=flag)
                   for shape, flag in zip((x_shape, (4, 5), (5,)), tracked))
        leaves = {name: t for name, t in zip("xwb", (x, w, b)) if t.requires_grad}
        gradcheck(lambda: tsum(linear(x, w, b) * linear(x, w, b)), leaves)
        for t in (x, w, b):
            if not t.requires_grad:
                assert t.grad is None


@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_linear_equals_matmul_plus_bias(x_shape):
    rng = np.random.default_rng(3)
    with using_dtype(np.float64):
        x = f64(rng.normal(size=x_shape), requires_grad=False)
        w = f64(rng.normal(size=(4, 5)), requires_grad=False)
        b = f64(rng.normal(size=(5,)), requires_grad=False)
        out = linear(x, w, b).data
        assert out.shape == x_shape[:-1] + (5,)
        assert np.abs(out - (matmul(x, w) + b).data).max() < 1e-12


def test_linear_shape_error_names_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\).*\(5,\)"):
        linear(tensor(np.zeros((2, 3))), tensor(np.zeros((4, 5))), tensor(np.zeros(5)))


# ---------------------------------------------------------------------------
# attention

HEADS = 2


def _attention_inputs(seed, self_attention, b=2, q=3, c=4, d=6):
    """Query, context (the query itself for self-attention), projections, a mask with False entries."""
    rng = np.random.default_rng(seed)
    x = f64(rng.normal(size=(b, q, d)))
    ctx = x if self_attention else f64(rng.normal(size=(b, c, d)))
    proj = [f64(0.5 * rng.normal(size=(d, d) if i % 2 == 0 else (d,))) for i in range(6)]
    mask = np.ones((b, ctx.shape[1]), dtype=bool)
    mask[0, 1] = mask[1, -1] = False
    return x, ctx, proj, mask


def _composed_attention(x, ctx, proj, mask, rate, rng):
    """The path ``attention`` fuses, from linear, matmul, softmax and dropout records."""
    b, q, d = x.shape
    c = ctx.shape[1]
    dk = d // HEADS

    def split(t, n):
        return t.reshape((b, n, HEADS, dk)).transpose((0, 2, 1, 3))

    qh = split(linear(x, *proj[0:2]), q)
    kh = split(linear(ctx, *proj[2:4]), c)
    vh = split(linear(ctx, *proj[4:6]), c)
    scores = matmul(qh, kh.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(dk))
    alpha = softmax(scores, mask.reshape(b, 1, 1, c))
    weights = alpha.data
    alpha = dropout(alpha, rate, rng, training=True)
    return matmul(alpha, vh).transpose((0, 2, 1, 3)).reshape((b, q, d)), weights


@pytest.mark.parametrize("self_attention", [True, False], ids=["self", "cross"])
def test_attention_gradcheck(self_attention):
    with using_dtype(np.float64):
        x, ctx, proj, mask = _attention_inputs(4, self_attention)
        mix = tensor(np.random.default_rng(5).normal(size=x.shape))
        leaves = {"query": x, "context": ctx,
                  **dict(zip(("wq", "bq", "wk", "bk", "wv", "bv"), proj))}
        if self_attention:
            del leaves["context"]

        def loss():
            out, _ = attention(x, ctx, *proj, HEADS, mask, 0.3, np.random.default_rng(6),
                               training=True)
            return tsum(out * mix)

        gradcheck(loss, leaves)


@pytest.mark.parametrize("self_attention", [True, False], ids=["self", "cross"])
def test_attention_matches_composed_path(self_attention):
    with using_dtype(np.float64):
        x, ctx, proj, mask = _attention_inputs(7, self_attention)
        mix = tensor(np.random.default_rng(8).normal(size=x.shape))
        leaves = [x, *proj] if self_attention else [x, ctx, *proj]
        results = []
        for fused in (True, False):
            for t in leaves:
                t.grad = None
            rng = np.random.default_rng(9)
            with Tape():
                if fused:
                    out, weights = attention(x, ctx, *proj, HEADS, mask, 0.3, rng, training=True)
                else:
                    out, weights = _composed_attention(x, ctx, proj, mask, 0.3, rng)
                backward(tsum(out * mix))
            results.append([out.data, weights] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12


def test_attention_all_true_mask_is_no_mask():
    with using_dtype(np.float64):
        x, ctx, proj, mask = _attention_inputs(10, False)
        free, w_free = attention(x, ctx, *proj, HEADS)
        full, w_full = attention(x, ctx, *proj, HEADS, np.ones_like(mask))
        assert np.array_equal(free.data, full.data) and np.array_equal(w_free, w_full)
        _, w_masked = attention(x, ctx, *proj, HEADS, mask)
        assert np.all(w_masked[0, :, :, 1] == 0.0)
        assert np.allclose(w_masked.sum(axis=-1), 1.0)


def test_attention_fully_masked_row_raises():
    with using_dtype(np.float64):
        x, ctx, proj, mask = _attention_inputs(11, False)
        mask[1] = False
        with pytest.raises(ValueError, match="fully masked"):
            attention(x, ctx, *proj, HEADS, mask)


def test_attention_shape_error():
    with using_dtype(np.float64):
        x, ctx, proj, _ = _attention_inputs(12, False)
        with pytest.raises(ValueError, match="attention shapes disagree"):
            attention(x, ctx, *proj, 4)  # d = 6 does not split into 4 heads
        with pytest.raises(ValueError, match="attention shapes disagree"):
            attention(x, ctx, proj[1], *proj[1:], HEADS)


# ---------------------------------------------------------------------------
# layer_norm


def test_layer_norm_constant_vector_is_zero():
    out = layer_norm(tensor([5.0, 5.0, 5.0]), tensor([1.0, 1.0, 1.0]),
                     tensor([0.0, 0.0, 0.0]), eps=1e-12)
    assert np.abs(out.data).max() < 1e-5


def test_layer_norm_already_normalized():
    out = layer_norm(tensor([1.0, -1.0]), tensor([1.0, 1.0]), tensor([0.0, 0.0]))
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-5)


def test_layer_norm_statistics():
    rng = np.random.default_rng(2)
    x = tensor(rng.normal(3.0, 5.0, size=(6, 32)))
    out = layer_norm(x, tensor(np.ones(32)), tensor(np.zeros(32))).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


def test_layer_norm_empty_axis_error():
    with pytest.raises(ValueError, match="empty last axis"):
        layer_norm(tensor(np.zeros((2, 0))), tensor(np.zeros(0)), tensor(np.zeros(0)))


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(3)
    with using_dtype(np.float64):
        x = f64(rng.normal(size=(8,)))
        g = f64(rng.normal(size=(8,)))
        b = f64(rng.normal(size=(8,)))
        w = rng.normal(size=(8,))
        gradcheck(lambda: tsum(layer_norm(x, g, b) * tensor(w)), {"x": x, "g": g, "b": b})


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    out = softmax(tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_stable_under_large_scores():
    out = softmax(tensor([1000.0, 0.0]))
    assert np.isfinite(out.data).all()
    assert np.allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_values():
    out = softmax(tensor([1.0, 2.0, 3.0]))
    assert np.allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-4)


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(4)
    out = softmax(tensor(rng.normal(size=(5, 7)) * 10)).data
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_softmax_masked_positions_exactly_zero():
    mask = np.array([[True, False, True, False]])
    out = softmax(tensor([[5.0, 99.0, 1.0, 99.0]]), mask).data
    assert out[0, 1] == 0.0 and out[0, 3] == 0.0
    assert abs(out.sum() - 1.0) < 1e-6


def test_softmax_fully_masked_row_error():
    with pytest.raises(ValueError, match="fully masked"):
        softmax(tensor([[1.0, 2.0]]), np.array([[False, False]]))


def test_softmax_gradcheck():
    rng = np.random.default_rng(5)
    with using_dtype(np.float64):
        x = f64(rng.normal(size=(3, 6)))
        w = rng.normal(size=(3, 6))
        mask = np.ones((3, 6), dtype=bool)
        mask[:, -2:] = False
        gradcheck(lambda: tsum(softmax(x, mask) * tensor(w)), {"x": x})


def test_log_softmax_gradcheck():
    rng = np.random.default_rng(6)
    with using_dtype(np.float64):
        x = f64(rng.normal(size=(4, 5)))
        w = rng.normal(size=(4, 5))
        gradcheck(lambda: tsum(log_softmax(x) * tensor(w)), {"x": x})


# ---------------------------------------------------------------------------
# gelu and the other elementwise maps


def test_gelu_at_zero_and_asymptotes():
    x = tensor([0.0, 8.0, -8.0])
    out = gelu(x).data
    assert out[0] == 0.0
    assert abs(out[1] - 8.0) < 1e-6
    assert abs(out[2]) < 1e-6


def test_gelu_gradcheck():
    with using_dtype(np.float64):
        x = f64([-3.0, -1.0, 0.0, 1.0, 3.0])
        gradcheck(lambda: tsum(gelu(x)), {"x": x})


def test_gelu_matches_cube_power_formula():
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    xd = np.random.default_rng(4).normal(0.0, 2.0, size=(6, 7))
    t = np.tanh(c * (xd + a * xd**3))
    want = 0.5 * xd * (1.0 + t)
    want_grad = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t**2) * c * (1.0 + 3.0 * a * xd**2)
    with using_dtype(np.float64):
        x = f64(xd)
        with Tape():
            y = gelu(x)
            backward(tsum(y))
    assert np.abs(y.data - want).max() < 1e-12
    assert np.abs(x.grad - want_grad).max() < 1e-12


def test_sigmoid_softplus_gradcheck():
    rng = np.random.default_rng(7)
    with using_dtype(np.float64):
        x = f64(rng.normal(size=(9,)) * 3)
        gradcheck(lambda: tsum(sigmoid(x) * sigmoid(x)), {"x": x})
        x2 = f64(rng.normal(size=(9,)) * 3)
        gradcheck(lambda: tsum(softplus(x2)), {"x2": x2})


def test_softplus_extremes_are_finite():
    out = softplus(tensor([-200.0, 0.0, 200.0])).data
    assert np.isfinite(out).all()
    assert abs(out[2] - 200.0) < 1e-6


# ---------------------------------------------------------------------------
# embedding lookup, gathers, reshapes


def test_embedding_gather_semantics():
    table = tensor(np.arange(12.0).reshape(4, 3))
    out = embedding_lookup(table, np.array([2, 0]))
    assert np.allclose(out.data, [[6, 7, 8], [0, 1, 2]])


def test_embedding_repeated_ids_accumulate():
    with using_dtype(np.float64):
        table = f64(np.arange(8.0).reshape(4, 2))
        with Tape():
            out = embedding_lookup(table, np.array([1, 1]))
            backward(tsum(out))
        expected = np.zeros((4, 2))
        expected[1] = 2.0
        assert np.array_equal(table.grad, expected)


def test_embedding_out_of_range_names_id():
    table = tensor(np.zeros((4, 2)))
    with pytest.raises(IndexError, match="7"):
        embedding_lookup(table, np.array([1, 7]))


def test_embedding_composite_gradcheck():
    rng = np.random.default_rng(8)
    with using_dtype(np.float64):
        table = f64(rng.normal(size=(5, 3)))
        w = f64(rng.normal(size=(3, 2)))
        ids = np.array([0, 3, 3, 1])
        gradcheck(lambda: tsum(matmul(embedding_lookup(table, ids), w)),
                  {"table": table, "w": w})


def test_getitem_take_rows_concat_gradcheck():
    rng = np.random.default_rng(9)
    with using_dtype(np.float64):
        x = f64(rng.normal(size=(4, 6)))
        mask = np.array([True, False, True, True])
        gradcheck(lambda: tsum(x[mask] * x[mask]), {"x": x})

        y = f64(rng.normal(size=(5, 3)))
        ids = np.array([2, 0, 1, 2, 0])
        gradcheck(lambda: tsum(take_rows(y, ids) * take_rows(y, ids)), {"y": y})

        a = f64(rng.normal(size=(2, 3)))
        b = f64(rng.normal(size=(2, 2)))
        gradcheck(lambda: tsum(concat([a, b], axis=1) * concat([a, b], axis=1)),
                  {"a": a, "b": b})


def test_take_rows_out_of_range():
    with pytest.raises(IndexError, match="9"):
        take_rows(tensor(np.zeros((2, 3))), np.array([0, 9]))


def test_transpose_reshape_mean_gradcheck():
    rng = np.random.default_rng(10)
    with using_dtype(np.float64):
        x = f64(rng.normal(size=(2, 3, 4)))
        w = rng.normal(size=(4, 3, 2))
        gradcheck(lambda: tsum(transpose(x, (2, 1, 0)) * tensor(w)), {"x": x})
        gradcheck(lambda: tmean(x.reshape((6, 4)) * x.reshape((6, 4)), axis=1).sum(),
                  {"x": x})


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_identity():
    x = tensor(np.ones((3, 3)))
    out = dropout(x, 0.0, np.random.default_rng(0), training=True)
    assert out is x


def test_dropout_eval_identity():
    x = tensor(np.ones((3, 3)))
    assert dropout(x, 0.9, None, training=False) is x


def test_dropout_zero_fraction():
    rng = np.random.default_rng(11)
    x = tensor(np.ones(100_000))
    out = dropout(x, 0.5, rng, training=True).data
    frac = (out == 0.0).mean()
    assert 0.49 <= frac <= 0.51
    survivors = out[out != 0.0]
    assert np.allclose(survivors, 2.0)


def test_dropout_deterministic_under_seed():
    x = tensor(np.ones(512))
    a = dropout(x, 0.3, np.random.default_rng(42), training=True).data
    b = dropout(x, 0.3, np.random.default_rng(42), training=True).data
    assert np.array_equal(a, b)


def test_dropout_rate_validation():
    with pytest.raises(ValueError, match="rate"):
        dropout(tensor([1.0]), 1.0, np.random.default_rng(0), training=True)


def test_dropout_backward_uses_mask():
    with using_dtype(np.float64):
        x = f64(np.ones(64))
        rng = np.random.default_rng(3)
        with Tape():
            out = dropout(x, 0.25, rng, training=True)
            backward(tsum(out))
        zeroed = out.data == 0.0
        assert np.array_equal(x.grad == 0.0, zeroed)
        assert np.allclose(x.grad[~zeroed], 1.0 / 0.75)


# ---------------------------------------------------------------------------
# residual_layer_norm and feed_forward, against the primitives they fuse

_DROPOUT_MODES = pytest.mark.parametrize("rate, training", [(0.3, False), (0.0, True), (0.3, True)],
                                         ids=["eval", "rate0", "dropout"])

_D, _D_FF = 8, 32


def _sublayer_leaves(rng, dtype):
    """x, merged heads h, wo, bo, w1, b1, w2, b2, gain, bias as leaves of ``dtype``."""
    shapes = ((2, 5, _D), (2, 5, _D), (_D, _D), (_D,), (_D, _D_FF), (_D_FF,), (_D_FF, _D), (_D,),
              (_D,), (_D,))
    return [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True) for shape in shapes]


def _residual(x, h, wo, bo, w1, b1, w2, b2, gain, bias, rate, rng, training):
    """The attention tail as one residual_layer_norm record."""
    return residual_layer_norm(x, h, wo, bo, gain, bias, 1e-12, rate, rng, training)


def _residual_composed(x, h, wo, bo, w1, b1, w2, b2, gain, bias, rate, rng, training):
    return layer_norm(x + dropout(linear(h, wo, bo), rate, rng, training), gain, bias, 1e-12)


def _ff(x, h, wo, bo, w1, b1, w2, b2, gain, bias, rate, rng, training):
    """A feed-forward sub-layer as one feed_forward record."""
    return feed_forward(x, w1, b1, w2, b2, gain, bias, 1e-12, rate, rng, training)


def _ff_composed(x, h, wo, bo, w1, b1, w2, b2, gain, bias, rate, rng, training):
    sub = linear(gelu(linear(x, w1, b1)), w2, b2)
    return layer_norm(x + dropout(sub, rate, rng, training), gain, bias, 1e-12)


_SUBLAYERS = (
    (_residual, _residual_composed, ("x", "h", "wo", "bo", "gain", "bias")),
    (_ff, _ff_composed, ("x", "w1", "b1", "w2", "b2", "gain", "bias")),
)

_LEAF_NAMES = ("x", "h", "wo", "bo", "w1", "b1", "w2", "b2", "gain", "bias")


def _sublayer_gradcheck(fused, names, rate, training):
    rng = np.random.default_rng(20)
    with using_dtype(np.float64):
        leaves = _sublayer_leaves(rng, np.float64)
        mix = tensor(rng.normal(size=leaves[0].shape))

        def loss():
            return tsum(fused(*leaves, rate, np.random.default_rng(21), training) * mix)

        by_name = dict(zip(_LEAF_NAMES, leaves))
        gradcheck(loss, {name: by_name[name] for name in names})


@_DROPOUT_MODES
def test_residual_layer_norm_gradcheck(rate, training):
    fused, _, names = _SUBLAYERS[0]
    _sublayer_gradcheck(fused, names, rate, training)


def test_feed_forward_gradcheck():
    fused, _, names = _SUBLAYERS[1]
    for rate, training in ((0.3, False), (0.0, True), (0.3, True)):
        _sublayer_gradcheck(fused, names, rate, training)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@_DROPOUT_MODES
def test_fused_sublayer_matches_composed_primitives_bit_for_bit(dtype, rate, training):
    """Each fused record against its primitives, as the encoders build them: ``x``
    feeds the sub-layer and, for feed_forward, the block."""
    for fused, composed, names in _SUBLAYERS:
        rng = np.random.default_rng(23)
        with using_dtype(dtype):
            leaves = _sublayer_leaves(rng, dtype)
            by_name = dict(zip(_LEAF_NAMES, leaves))
            mix = tensor(rng.normal(size=leaves[0].shape))
            results = []
            for build in (fused, composed):
                for t in leaves:
                    t.grad = None
                drop_rng = np.random.default_rng(24)
                with Tape():
                    x = leaves[0] * 1.5
                    out = build(x, *leaves[1:], rate, drop_rng, training)
                    backward(tsum(out * mix))
                results.append([out.data] + [by_name[name].grad for name in names]
                               + [drop_rng.random(3)])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rate, training", [(0.3, False), (0.0, True)], ids=["eval", "rate0"])
def test_residual_layer_norm_without_dropout_leaves_rng_untouched(rate, training):
    rng = np.random.default_rng(25)
    before = rng.bit_generator.state
    x, h = tensor(np.ones((2, 4))), tensor(np.arange(8.0).reshape(2, 4))
    eye, zeros = tensor(np.eye(4)), tensor(np.zeros(4))
    out = residual_layer_norm(x, h, eye, zeros, tensor(np.ones(4)), zeros, 1e-12,
                              rate, rng, training)
    assert rng.bit_generator.state == before
    assert np.array_equal(out.data, layer_norm(x + h, tensor(np.ones(4)), zeros).data)


def test_residual_layer_norm_rejects_mismatched_shapes_and_rates():
    x, ones, eye = tensor(np.zeros((2, 4))), tensor(np.ones(4)), tensor(np.eye(4))
    with pytest.raises(ValueError, match="residual shapes disagree"):
        residual_layer_norm(x, tensor(np.zeros((2, 3))), eye, ones, ones, ones, 1e-12, 0.0,
                            None, False)
    with pytest.raises(ValueError, match="residual shapes disagree"):
        residual_layer_norm(x, tensor(np.zeros((3, 4))), eye, ones, ones, ones, 1e-12, 0.0,
                            None, False)
    with pytest.raises(ValueError, match="rate"):
        residual_layer_norm(x, x, eye, ones, ones, ones, 1e-12, 1.0, None, False)
    with pytest.raises(ValueError, match="needs an rng"):
        residual_layer_norm(x, x, eye, ones, ones, ones, 1e-12, 0.1, None, True)


def test_feed_forward_shape_error_names_shapes():
    x, w, ones = tensor(np.zeros((2, 3))), tensor(np.zeros((3, 5))), tensor(np.ones(3))
    with pytest.raises(ValueError, match=r"feed_forward shapes disagree.*\(4, 3\)"):
        feed_forward(x, w, tensor(np.zeros(5)), tensor(np.zeros((4, 3))), tensor(np.zeros(3)),
                     ones, ones, 1e-12, 0.0, None, False)


def test_layer_norm_and_gelu_match_the_written_out_float32_formulas():
    """The in-place forms round as the plain expressions do, value for value."""
    rng = np.random.default_rng(26)
    xd, gy = (rng.normal(0.0, 2.0, size=(3, 5, 16)).astype(np.float32) for _ in range(2))
    gd, bd = (rng.normal(size=16).astype(np.float32) for _ in range(2))
    x, gain, bias = (Tensor(a.copy(), requires_grad=True) for a in (xd, gd, bd))
    with Tape():
        out = layer_norm(x, gain, bias)
        backward(tsum(out * tensor(gy)))
    xc = xd - _row_mean(xd)
    inv = 1.0 / np.sqrt(_row_mean(xc * xc) + 1e-12)
    xhat = xc * inv
    dxhat = gy * gd
    want_gx = inv * (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat))
    assert out.data.tobytes() == (xhat * gd + bd).tobytes()
    assert x.grad.tobytes() == want_gx.tobytes()
    assert gain.grad.tobytes() == _col_sum((gy * xhat).reshape(-1, 16)).tobytes()

    x = Tensor(xd.copy(), requires_grad=True)
    with Tape():
        out = gelu(x)
        backward(tsum(out * tensor(gy)))
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    x2 = xd * xd
    t = np.tanh(c * (xd + a * (x2 * xd)))
    dinner = c * (1.0 + 3.0 * a * x2)
    assert out.data.tobytes() == (0.5 * xd * (1.0 + t)).tobytes()
    assert x.grad.tobytes() == (gy * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t**2) * dinner)).tobytes()


# ---------------------------------------------------------------------------
# row and column reductions

_FLOAT_DTYPES = st.sampled_from([np.float32, np.float64])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_max_is_max_bit_for_bit(data):
    dtype = data.draw(_FLOAT_DTYPES)
    special = st.sampled_from([-np.inf, np.inf, np.nan, 0.0, -0.0])
    finite = st.floats(-2.0**100, 2.0**100, width=32)
    y = data.draw(arrays(dtype, array_shapes(min_dims=1, max_dims=4, max_side=6),
                         elements=st.one_of(finite, special)))
    got = _row_max(y)
    assert got.dtype == y.dtype and got.shape == y.shape[:-1] + (1,)
    assert got.tobytes() == y.max(axis=-1, keepdims=True).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_and_column_reductions_match_float64_references(data):
    """Each result lies within the rounding of its own accumulation of the exact value:
    a float64 row sum rounds once to float32, and a float32 GEMV by at most n ulps of the
    absolute sum."""
    dtype = data.draw(_FLOAT_DTYPES)
    x = data.draw(arrays(dtype, array_shapes(min_dims=2, max_dims=4, max_side=9),
                         elements=st.floats(-1e3, 1e3, width=32, allow_subnormal=False)))
    wide = x.astype(np.float64)
    eps = np.finfo(dtype).eps
    n = x.shape[-1]
    got = _row_sum(x)
    want = wide.sum(axis=-1, keepdims=True)
    abs_sum = np.abs(wide).sum(axis=-1, keepdims=True)
    assert got.dtype == dtype and got.shape == want.shape
    assert np.all(np.abs(got - want) <= eps * np.abs(want) + n * 2.0**-52 * abs_sum)
    got = _row_mean(x)
    assert got.dtype == dtype and got.shape == want.shape
    tiny = n * np.finfo(dtype).smallest_subnormal  # x / n may fall below the normal range
    assert np.all(np.abs(got - want / n) <= (n + 1) * eps * abs_sum / n + tiny)
    x2 = x.reshape(-1, n)
    got = _col_sum(x2)
    rows = x2.shape[0]
    assert got.dtype == dtype and got.shape == (n,)
    assert np.all(np.abs(got - x2.astype(np.float64).sum(axis=0))
                  <= rows * eps * np.abs(x2.astype(np.float64)).sum(axis=0))


@pytest.mark.parametrize("seed", range(4))
def test_attention_weights_follow_a_permuted_context_bit_for_bit(seed):
    """Inputs on a coarse grid make every product and score exact, so only the softmax
    normaliser could depend on the order of the context positions."""
    rng = np.random.default_rng(seed)
    b, q, c, d = 4, 10, 10, 8

    def grid(*shape):
        return tensor(rng.integers(-4, 5, size=shape) / 4.0)

    x, ctx = grid(b, q, d), grid(b, c, d)
    proj = [grid(d, d) if i % 2 == 0 else grid(d) for i in range(6)]
    mask = rng.random((b, c)) < 0.8
    mask[:, 0] = True
    perm = rng.permutation(c)
    _, weights = attention(x, ctx, *proj, HEADS, mask)
    _, permuted = attention(x, tensor(ctx.data[:, perm]), *proj, HEADS, mask[:, perm])
    assert weights.dtype == np.float32
    assert permuted.tobytes() == np.ascontiguousarray(weights[..., perm]).tobytes()


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_of_sum_is_ones():
    x = tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape():
        backward(tsum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_of_quadratic():
    x = tensor(np.arange(5.0), requires_grad=True)
    with Tape():
        backward(tsum(x * x))
    assert np.allclose(x.grad, 2 * np.arange(5.0))


def test_backward_rejects_nonscalar():
    x = tensor(np.ones(3), requires_grad=True)
    with Tape():
        y = x * 2.0
        with pytest.raises(ValueError, match="scalar"):
            backward(y)


def test_backward_rejects_untaped_loss():
    x = tensor([3.0], requires_grad=True)
    y = tsum(x)  # no active tape
    with pytest.raises(ValueError, match="tape"):
        backward(y)


def test_tape_discarded_after_backward():
    x = tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        backward(tsum(x * x))
    assert len(tape) == 0


def test_shared_subexpression_accumulates():
    with using_dtype(np.float64):
        x = f64([2.0])
        with Tape():
            y = x * 3.0
            z = tsum(y * y) + tsum(y)
            backward(z)
        # d/dx (9x^2 + 3x) = 18x + 3 = 39
        assert np.allclose(x.grad, [39.0])


def test_leaf_gradients_do_not_share_storage():
    # add hands the same array to both inputs; scaling one leaf's
    # gradient in place, as clipping does, must not reach the other
    with using_dtype(np.float64):
        a = f64([1.0, 2.0])
        b = f64([3.0, 4.0])
        with Tape():
            backward(tsum(a + b))
        a.grad *= 0.5
        assert np.array_equal(a.grad, [0.5, 0.5])
        assert np.array_equal(b.grad, [1.0, 1.0])


def test_leaf_keeps_its_zero_grads_buffer():
    with using_dtype(np.float64):
        a = f64([1.0, -2.0])
        zero_grads({"a": a})
        buffer = a.grad
        with Tape():
            backward(tsum(a * a) + tsum(a))
        assert a.grad is buffer
        assert np.array_equal(buffer, [3.0, -3.0])


def test_arena_of_accepts_only_the_views_it_made_in_order():
    a, b = f64([1.0, 2.0]), f64([[3.0], [4.0], [5.0]])
    zero_grads({"a": a, "b": b})
    buffer = arena_of([a.grad, b.grad])
    assert buffer is not None and buffer.size == 5
    assert arena_of([b.grad, a.grad]) is None
    assert arena_of([a.grad]) is None
    # a new gradient array can take the id of the view it replaces
    b.grad = None
    b.grad = np.ones((3, 1))
    assert arena_of([a.grad, b.grad]) is None


def test_grad_not_populated_for_untracked_inputs():
    x = tensor([1.0, 2.0], requires_grad=True)
    c = tensor([5.0, 5.0])
    with Tape():
        backward(tsum(x * c))
    assert c.grad is None
    assert np.allclose(x.grad, [5.0, 5.0])


def test_fixed_seed_forward_bit_reproducible():
    def run():
        rng = np.random.default_rng(123)
        x = tensor(rng.normal(size=(4, 8)))
        w = tensor(rng.normal(size=(8, 8)))
        out = softmax(matmul(x, w))
        out = dropout(out, 0.1, np.random.default_rng(7), training=True)
        return out.data.tobytes()

    assert run() == run()
