"""Attention sub-layers, encoder stacks, and the full model forward pass."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossmodal.config import MaskingConfig, ModelConfig, full_scale_model
from crossmodal.data import (
    DEFAULT_LABELS,
    BatchMaker,
    Vocabulary,
    build_answer_table,
    can_mismatch,
    collate,
    generate_synthetic_corpus,
)
from crossmodal.encoders import (
    Runtime,
    cross_modality_layer,
    cross_stack,
    forward_batch,
    language_stack,
    multi_head_attention,
    object_stack,
    single_modality_layer,
)
from crossmodal.params import init_params, parameter_layout
from crossmodal.tensor import Tape, Tensor, backward, linear, tensor, tsum, using_dtype
from helpers import forward_one, unmasked_row

CFG = ModelConfig(vocab_size=23, num_labels=5, num_answers=4, dropout=0.0).validate()
RT = Runtime()


def make_params(seed=0, cfg=CFG):
    return init_params(cfg, np.random.default_rng(seed))


def _rand(rng, *shape):
    return tensor(rng.normal(size=shape).astype(np.float32))


def _attend(q, c, mask, params, prefix, cfg=CFG):
    """multi_head_attention, then the output projection the residual record applies."""
    heads, weights = multi_head_attention(q, c, mask, params, prefix, cfg, RT)
    return linear(heads, params[f"{prefix}.wo"], params[f"{prefix}.bo"]), weights


# ---------------------------------------------------------------------------
# multi_head_attention


def test_single_context_vector_gets_full_weight():
    params = make_params(1)
    rng = np.random.default_rng(2)
    q = _rand(rng, 1, 3, CFG.hidden_size)
    c = _rand(rng, 1, 1, CFG.hidden_size)
    out, weights = _attend(q, c, None, params, "lang.0.attn")
    assert np.allclose(weights, 1.0)
    # with alpha == 1 the output is the value projection of the single
    # context vector, run through the output projection
    v = c.data @ params["lang.0.attn.wv"].data + params["lang.0.attn.bv"].data
    d = CFG.hidden_size
    expected = v @ params["lang.0.attn.wo"].data + params["lang.0.attn.bo"].data
    assert np.abs(out.data - expected).max() < 1e-5


def test_zero_projections_give_uniform_weights():
    params = make_params(3)
    params["lang.0.attn.wq"].data[:] = 0.0
    params["lang.0.attn.bq"].data[:] = 0.0
    rng = np.random.default_rng(4)
    x = _rand(rng, 2, 5, CFG.hidden_size)
    mask = np.ones((2, 5), dtype=bool)
    mask[1, -2:] = False
    _, weights = multi_head_attention(x, x, mask, params, "lang.0.attn", CFG, RT)
    assert np.allclose(weights[0], 1.0 / 5.0, atol=1e-6)
    assert np.allclose(weights[1, :, :, :3], 1.0 / 3.0, atol=1e-6)
    assert np.all(weights[1, :, :, 3:] == 0.0)


def test_attention_matches_bruteforce_single_head():
    cfg = ModelConfig(vocab_size=9, num_labels=2, num_answers=2,
                      hidden_size=8, num_heads=1, dropout=0.0).validate()
    params = make_params(5, cfg)
    rng = np.random.default_rng(6)
    q = _rand(rng, 1, 2, 8)
    c = _rand(rng, 1, 3, 8)
    out, weights = _attend(q, c, None, params, "lang.0.attn", cfg)

    def proj(x, w, b):
        return x @ params[f"lang.0.attn.{w}"].data + params[f"lang.0.attn.{b}"].data

    Q, K, V = proj(q.data[0], "wq", "bq"), proj(c.data[0], "wk", "bk"), proj(c.data[0], "wv", "bv")
    expected = np.zeros((2, 8))
    for i in range(2):
        scores = np.array([Q[i] @ K[j] / math.sqrt(8) for j in range(3)])
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        assert np.allclose(alpha, weights[0, 0, i], atol=1e-5)
        mixed = sum(alpha[j] * V[j] for j in range(3))
        expected[i] = mixed @ params["lang.0.attn.wo"].data + params["lang.0.attn.bo"].data
    assert np.abs(out.data[0] - expected).max() < 1e-5


def test_attention_width_mismatch():
    params = make_params(7)
    bad = tensor(np.zeros((1, 2, CFG.hidden_size + 1), dtype=np.float32))
    good = tensor(np.zeros((1, 2, CFG.hidden_size), dtype=np.float32))
    with pytest.raises(ValueError, match="width"):
        multi_head_attention(bad, good, None, params, "lang.0.attn", CFG, RT)


def test_attention_all_masked_context_errors():
    params = make_params(8)
    rng = np.random.default_rng(9)
    x = _rand(rng, 1, 3, CFG.hidden_size)
    with pytest.raises(ValueError, match="masked"):
        multi_head_attention(x, x, np.zeros((1, 3), dtype=bool), params, "lang.0.attn", CFG, RT)


# ---------------------------------------------------------------------------
# single-modality layer


def test_single_layer_preserves_shape():
    params = make_params(10)
    rng = np.random.default_rng(11)
    for length in (1, 4, 9):
        x = _rand(rng, 2, length, CFG.hidden_size)
        y, _ = single_modality_layer(x, None, params, "lang.1", CFG, RT)
        assert y.shape == x.shape


def test_single_layer_near_identity_with_zero_projections():
    params = make_params(12)
    for name in list(params):
        if name.startswith("lang.0.") and not name.endswith((".g", ".b")):
            params[name].data[:] = 0.0
    rng = np.random.default_rng(13)
    x = _rand(rng, 1, 4, CFG.hidden_size)
    y, _ = single_modality_layer(x, None, params, "lang.0", CFG, RT)
    assert np.isfinite(y.data).all()
    # zero sublayer outputs reduce the layer to two layer_norms of the stream
    def ln(v):
        mu = v.mean(axis=-1, keepdims=True)
        var = v.var(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + CFG.ln_eps)
    assert np.abs(y.data - ln(ln(x.data))).max() < 1e-5


def test_single_layer_gradient_reaches_every_parameter():
    params = make_params(14)
    rng = np.random.default_rng(15)
    x = _rand(rng, 2, 5, CFG.hidden_size)
    layer_names = [n for n in params if n.startswith("lang.2.")]
    with Tape():
        y, _ = single_modality_layer(x, None, params, "lang.2", CFG, RT)
        backward(tsum(y))
    for name in layer_names:
        g = params[name].grad
        assert g is not None and np.abs(g).sum() > 0, f"no gradient for {name}"


# ---------------------------------------------------------------------------
# cross-modality layer


def test_cross_layer_preserves_shapes():
    params = make_params(16)
    rng = np.random.default_rng(17)
    lang = _rand(rng, 2, 6, CFG.hidden_size)
    vis = _rand(rng, 2, 4, CFG.hidden_size)
    lo, vo, weights = cross_modality_layer(lang, vis, None, None, params, "cross.0", CFG, RT)
    assert lo.shape == (2, 6, CFG.hidden_size)
    assert vo.shape == (2, 4, CFG.hidden_size)
    assert [w[0] for w in weights] == ["cross-L->R", "cross-R->L", "self-L", "self-R"]


def test_cross_layer_vision_permutation_equivariance():
    params = make_params(18)
    rng = np.random.default_rng(19)
    lang = _rand(rng, 1, 5, CFG.hidden_size)
    vis = _rand(rng, 1, 6, CFG.hidden_size)
    lo, vo, _ = cross_modality_layer(lang, vis, None, None, params, "cross.1", CFG, RT)
    perm = rng.permutation(6)
    vis_p = tensor(vis.data[:, perm])
    lo_p, vo_p, _ = cross_modality_layer(lang, vis_p, None, None, params, "cross.1", CFG, RT)
    assert np.abs(lo.data - lo_p.data).max() < 1e-6
    assert np.abs(vo.data[:, perm] - vo_p.data).max() < 1e-6


def test_cross_path_is_live():
    # with the language input zeroed, the cross layer output still differs
    # from a pure self-attention+FF path because the cross sub-layer sits
    # in the residual stream
    cfg = CFG
    rng = np.random.default_rng(20)
    params = make_params(21)
    for name in params:
        if name.startswith("cross.0."):
            params[name].data[:] = rng.normal(0, 0.05, size=params[name].shape)
    lang = tensor(np.zeros((1, 5, cfg.hidden_size), dtype=np.float32))
    vis = _rand(rng, 1, 4, cfg.hidden_size)
    _, vo, _ = cross_modality_layer(lang, vis, None, None, params, "cross.0", cfg, RT)

    # vision-only alternative: skip the cross sub-layer entirely
    from crossmodal.encoders import _attention_out, _feed_forward, multi_head_attention as mha
    self_r, _ = mha(vis, vis, None, params, "cross.0.self_r", cfg, RT)
    vis_s = _attention_out(vis, self_r, params, "cross.0.self_r", cfg, RT)
    vo_self = _feed_forward(vis_s, params, "cross.0.ff_r", cfg, RT)
    assert np.abs(vo.data - vo_self.data).max() > 1e-3


def test_cross_layer_training_draws_dropout_in_documented_order():
    # training runs l2r, r2l, their residuals, self_l, self_r, their
    # residuals, ff_l, ff_r; a reordered layer draws different masks
    from crossmodal.encoders import _attention_out, _feed_forward
    cfg = ModelConfig(vocab_size=23, num_labels=5, num_answers=4, dropout=0.3).validate()
    params = make_params(22, cfg)
    rng = np.random.default_rng(23)
    lang, vis = _rand(rng, 2, 6, cfg.hidden_size), _rand(rng, 2, 4, cfg.hidden_size)
    lang_mask, vis_mask = np.ones((2, 6), bool), np.ones((2, 4), bool)
    lang_mask[1, 3:] = False
    rt = Runtime(training=True, rng=np.random.default_rng(24))
    lo, vo, weights = cross_modality_layer(lang, vis, lang_mask, vis_mask, params, "cross.1",
                                           cfg, rt)

    ref = Runtime(training=True, rng=np.random.default_rng(24))

    def attend(query, context, mask, name):
        return multi_head_attention(query, context, mask, params, f"cross.1.{name}", cfg, ref)

    def out(x, heads, name):
        return _attention_out(x, heads, params, f"cross.1.{name}", cfg, ref)

    l2r, w_l2r = attend(lang, vis, vis_mask, "l2r")
    r2l, w_r2l = attend(vis, lang, lang_mask, "r2l")
    lang_x, vis_x = out(lang, l2r, "l2r"), out(vis, r2l, "r2l")
    self_l, w_sl = attend(lang_x, lang_x, lang_mask, "self_l")
    self_r, w_sr = attend(vis_x, vis_x, vis_mask, "self_r")
    lang_s, vis_s = out(lang_x, self_l, "self_l"), out(vis_x, self_r, "self_r")
    lang_out = _feed_forward(lang_s, params, "cross.1.ff_l", cfg, ref)
    vis_out = _feed_forward(vis_s, params, "cross.1.ff_r", cfg, ref)

    assert lo.data.tobytes() == lang_out.data.tobytes()
    assert vo.data.tobytes() == vis_out.data.tobytes()
    assert [name for name, _ in weights] == ["cross-L->R", "cross-R->L", "self-L", "self-R"]
    for (_, w), w_ref in zip(weights, (w_l2r, w_r2l, w_sl, w_sr)):
        assert w.tobytes() == w_ref.tobytes()
    assert rt.rng.bit_generator.state == ref.rng.bit_generator.state


# ---------------------------------------------------------------------------
# full model


def _inputs(rng, cfg=CFG, n=6):
    ids = np.concatenate([[2], rng.integers(5, cfg.vocab_size, size=n - 2), [3]])
    feats = rng.normal(size=(cfg.objects_per_image, cfg.feat_dim)).astype(np.float32)
    x0 = rng.uniform(0, 0.6, size=cfg.objects_per_image)
    y0 = rng.uniform(0, 0.6, size=cfg.objects_per_image)
    boxes = np.stack([x0, y0, x0 + 0.2, y0 + 0.2], axis=1).astype(np.float32)
    labels = rng.integers(0, cfg.num_labels, size=cfg.objects_per_image)
    return unmasked_row(ids, feats, boxes, labels)


def test_model_forward_desk_shapes():
    params = make_params(22)
    rng = np.random.default_rng(23)
    lang, vis, cls, records = forward_one(_inputs(rng, n=6), params, CFG)
    assert lang.shape == (6, 64)
    assert vis.shape == (8, 64)
    assert cls.shape == (64,)
    assert len(records) == CFG.n_lang_layers + CFG.n_vis_layers + 4 * CFG.n_cross_layers


def test_full_scale_layout_validates():
    cfg = full_scale_model()
    assert (cfg.n_lang_layers, cfg.n_cross_layers, cfg.n_vis_layers) == (9, 5, 5)
    assert cfg.hidden_size == 768 and cfg.num_heads == 12
    cfg.vocab_size, cfg.num_labels, cfg.num_answers = 30522, 1600, 9500
    layout = parameter_layout(cfg.validate())
    assert layout["emb.word"] == (30522, 768)
    assert layout["head.qa.w"] == (768, 9500)
    assert layout["cross.4.ff_r.w1"] == (768, 3072)


def test_attention_record_grouping():
    params = make_params(24)
    rng = np.random.default_rng(25)
    _, _, _, records = forward_one(_inputs(rng), params, CFG)
    lang_groups = [r for r in records if r.encoder == "language"]
    vis_groups = [r for r in records if r.encoder == "object"]
    cross_groups = [r for r in records if r.encoder == "cross"]
    assert len(lang_groups) == CFG.n_lang_layers
    assert len(vis_groups) == CFG.n_vis_layers
    assert len(cross_groups) == 4 * CFG.n_cross_layers
    for r in records:
        rows = r.weights.reshape(-1, r.weights.shape[-1])
        assert np.abs(rows.sum(axis=-1) - 1.0).max() < 1e-6


def test_padded_positions_get_exactly_zero_weight():
    from crossmodal.data import CrossModalBatch, Vocabulary, collate

    params = make_params(26)
    rng = np.random.default_rng(27)
    vocab = Vocabulary([f"w{i}" for i in range(CFG.vocab_size - 5)])
    rows = [_inputs(rng, n=n) for n in (4, 7)]
    packed = collate(CrossModalBatch(rows), vocab)
    out = forward_batch(packed, params, CFG)
    pad_cols = ~packed.token_mask  # (B, n)
    assert pad_cols[0, 4:].all()
    for rec in out.attention:
        if rec.direction in ("self-L", "cross-R->L"):
            w = rec.weights  # (B, H, q, n)
            assert np.all(w[0][:, :, pad_cols[0]] == 0.0)


def test_forward_deterministic_under_seed():
    def run():
        params = make_params(28)
        rng = np.random.default_rng(29)
        lang, vis, cls, _ = forward_one(_inputs(rng), params, CFG)
        return lang.tobytes() + vis.tobytes() + cls.tobytes()

    assert run() == run()


def test_forward_finite_over_random_seeds():
    for seed in range(25):
        params = make_params(seed)
        rng = np.random.default_rng(1000 + seed)
        lang, vis, cls, _ = forward_one(_inputs(rng), params, CFG)
        assert np.isfinite(lang).all() and np.isfinite(vis).all() and np.isfinite(cls).all()


def test_gradient_reaches_every_layer_parameter():
    # A generic scalar of the outputs: a plain sum would be degenerate
    # (layer-normed rows sum to the bias alone), and cls by itself cannot
    # see the last cross layer's vision branch, which only feeds vis_out.
    from crossmodal.data import CrossModalBatch, Vocabulary, collate

    params = make_params(30)
    rng = np.random.default_rng(31)
    vocab = Vocabulary([f"w{i}" for i in range(CFG.vocab_size - 5)])
    packed = collate(CrossModalBatch([_inputs(rng, n=7)]), vocab)
    w_cls = tensor(rng.normal(size=(CFG.hidden_size,)).astype(np.float32))
    w_vis = tensor(rng.normal(size=(CFG.objects_per_image, CFG.hidden_size)).astype(np.float32))
    with Tape():
        out = forward_batch(packed, params, CFG)
        backward(tsum(out.cls * w_cls) + tsum(out.vis * w_vis))
    layer_params = [n for n in params if n.startswith(("lang.", "vis.", "cross."))]
    total = zeros = 0
    for name in layer_params:
        g = params[name].grad
        assert g is not None, f"no gradient buffer for {name}"
        total += g.size
        zeros += int((g == 0.0).sum())
    assert zeros / total <= 0.001, f"{zeros}/{total} zero gradient entries"


def test_cls_gradient_reaches_language_path_of_every_layer():
    from crossmodal.data import CrossModalBatch, Vocabulary, collate

    params = make_params(32)
    rng = np.random.default_rng(33)
    vocab = Vocabulary([f"w{i}" for i in range(CFG.vocab_size - 5)])
    packed = collate(CrossModalBatch([_inputs(rng, n=7)]), vocab)
    w_cls = tensor(rng.normal(size=(CFG.hidden_size,)).astype(np.float32))
    with Tape():
        out = forward_batch(packed, params, CFG)
        backward(tsum(out.cls * w_cls))
    for name in params:
        if name.startswith(("lang.", "vis.")) or ".l2r" in name or ".self_l" in name or ".ff_l" in name:
            g = params[name].grad
            assert g is not None and np.abs(g).sum() > 0, f"cls does not reach {name}"


# ---------------------------------------------------------------------------
# cross_stack asked for one output


def _stages(packed, params, cfg):
    """The two single-modality stacks' states of ``packed``, as ``cross_stack``'s first arguments."""
    lang, _ = language_stack(packed.token_ids, packed.token_mask, params, cfg)
    vis, _ = object_stack(packed.roi_features, packed.boxes, packed.obj_mask_flags,
                          packed.obj_real, params, cfg)
    return lang, vis, packed.token_mask, packed.obj_real


@settings(max_examples=25, deadline=None)
@given(corpus_seed=st.integers(0, 2 ** 16), n_images=st.integers(1, 8),
       objects=st.integers(2, 6), cross_layers=st.integers(1, 3), batch=st.integers(1, 12),
       draw_seed=st.integers(0, 2 ** 16), dtype=st.sampled_from([np.float32, np.float64]))
def test_cross_stack_asked_for_cls_or_objects_matches_forward_batch(
        corpus_seed, n_images, objects, cross_layers, batch, draw_seed, dtype):
    with using_dtype(dtype):
        records, store = generate_synthetic_corpus(
            seed=corpus_seed, n_images=n_images, label_vocab=DEFAULT_LABELS[:6], feat_dim=8,
            objects_per_image=objects, dev_fraction=0.0)
        vocab = Vocabulary.from_records(records)
        table = build_answer_table(records, 1.0)
        cfg = ModelConfig(n_lang_layers=1, n_cross_layers=cross_layers, n_vis_layers=1,
                          hidden_size=16, num_heads=2, feat_dim=8, objects_per_image=objects,
                          vocab_size=len(vocab), num_labels=6,
                          num_answers=len(table)).validate()
        rng = np.random.default_rng(draw_seed)
        params = init_params(cfg, rng)
        # masked words and objects, and mismatched rows where the corpus allows them
        mismatch = 0.5 if can_mismatch(records) else 0.0
        maker = BatchMaker(records, store, vocab, table, MaskingConfig(0.15, 0.15, mismatch), cfg)
        chunk = [records[i] for i in rng.integers(0, len(records), size=batch)]
        packed = collate(maker.make_batch(chunk, rng), vocab)
        full = forward_batch(packed, params, cfg)
        cls = cross_stack(*_stages(packed, params, cfg), params, cfg, keep="cls")
        vis = cross_stack(*_stages(packed, params, cfg), params, cfg, keep="vis")
    assert cls.lang is cls.vis is vis.lang is vis.cls is None
    atol = 1e-12 if dtype == np.float64 else 32 * np.finfo(np.float32).eps
    assert cls.cls.data.dtype == vis.vis.data.dtype == np.dtype(dtype)
    np.testing.assert_allclose(cls.cls.data, full.cls.data, rtol=0, atol=atol)
    np.testing.assert_allclose(vis.vis.data, full.vis.data, rtol=0, atol=atol)


@pytest.mark.parametrize("keep", ["cls", "vis"])
def test_cross_stack_asked_for_less_in_training_mode_raises(keep):
    params = make_params(4)
    rng = np.random.default_rng(5)
    lang, vis = _rand(rng, 2, 5, CFG.hidden_size), _rand(rng, 2, 3, CFG.hidden_size)
    masks = np.ones((2, 5), bool), np.ones((2, 3), bool)
    with pytest.raises(ValueError, match="dropout draw"):
        cross_stack(lang, vis, *masks, params, CFG, Runtime(training=True, rng=rng), keep=keep)
    with pytest.raises(ValueError, match="not 'lang'"):
        cross_stack(lang, vis, *masks, params, CFG, keep="lang")
