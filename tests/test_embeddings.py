"""Word and object embedding semantics."""

import numpy as np
import pytest

from crossmodal.config import ModelConfig
from crossmodal.embeddings import embed_objects, embed_words
from crossmodal.params import init_params

CFG = ModelConfig(vocab_size=11, num_labels=4, num_answers=3).validate()


def make_params(seed=0):
    return init_params(CFG, np.random.default_rng(seed))


def test_identical_tokens_at_different_positions_differ():
    params = make_params()
    ids = np.array([[7, 7]])
    out = embed_words(ids, params, CFG).data[0]
    assert not np.allclose(out[0], out[1])


def test_zeroed_tables_give_zero_output():
    params = make_params()
    params["emb.word"].data[:] = 0.0
    params["emb.pos"].data[:] = 0.0
    out = embed_words(np.array([[1, 2, 3]]), params, CFG).data
    assert np.abs(out).max() < 1e-6


def test_word_embedding_matches_hand_recompute():
    params = make_params(3)
    ids = np.array([[2, 9, 4]])
    out = embed_words(ids, params, CFG).data[0]
    word = params["emb.word"].data
    pos = params["emb.pos"].data
    raw = word[9] + pos[1]
    mu = raw.mean()
    var = raw.var()
    expected = (raw - mu) / np.sqrt(var + CFG.ln_eps)
    expected = expected * params["emb.lang_ln.g"].data + params["emb.lang_ln.b"].data
    assert np.abs(out[1] - expected).max() < 1e-6


def test_sentence_longer_than_index_table_errors():
    params = make_params()
    too_long = np.zeros((1, CFG.max_sentence_len + 1), dtype=np.int64)
    with pytest.raises(ValueError, match="length"):
        embed_words(too_long, params, CFG)


def _random_objects(rng, m=4):
    feats = rng.normal(size=(m, CFG.feat_dim)).astype(np.float32)
    x0 = rng.uniform(0, 0.5, size=m)
    y0 = rng.uniform(0, 0.5, size=m)
    boxes = np.stack([x0, y0, x0 + 0.3, y0 + 0.3], axis=1).astype(np.float32)
    return feats, boxes


def test_equal_features_different_boxes_differ():
    params = make_params(1)
    rng = np.random.default_rng(5)
    feats, boxes = _random_objects(rng, m=2)
    feats[1] = feats[0]
    out = embed_objects(feats[None], boxes[None], None, params, CFG).data[0]
    assert not np.allclose(out[0], out[1])


def test_masked_object_uses_zeroed_feature_branch():
    params = make_params(2)
    rng = np.random.default_rng(6)
    feats, boxes = _random_objects(rng, m=3)
    mask = np.array([False, True, False])
    out = embed_objects(feats[None], boxes[None], mask[None], params, CFG).data[0]

    # expected: feature branch sees a zero vector, box branch is untouched
    def ln(x, g, b):
        mu, var = x.mean(), x.var()
        return (x - mu) / np.sqrt(var + CFG.ln_eps) * g + b

    fhat = ln(params["emb.feat_b"].data.copy(),
              params["emb.feat_ln.g"].data, params["emb.feat_ln.b"].data)
    phat = ln(boxes[1] @ params["emb.box_w"].data + params["emb.box_b"].data,
              params["emb.box_ln.g"].data, params["emb.box_ln.b"].data)
    assert np.abs(out[1] - (fhat + phat) / 2.0).max() < 1e-5


def test_average_of_independently_computed_branches():
    params = make_params(7)
    rng = np.random.default_rng(8)
    feats, boxes = _random_objects(rng, m=5)
    out = embed_objects(feats[None], boxes[None], None, params, CFG).data[0]

    def ln_rows(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + CFG.ln_eps) * g + b

    fhat = ln_rows(feats @ params["emb.feat_w"].data + params["emb.feat_b"].data,
                   params["emb.feat_ln.g"].data, params["emb.feat_ln.b"].data)
    phat = ln_rows(boxes @ params["emb.box_w"].data + params["emb.box_b"].data,
                   params["emb.box_ln.g"].data, params["emb.box_ln.b"].data)
    assert np.abs(out - (fhat + phat) / 2.0).max() < 1e-6


def test_object_embedding_permutation_equivariant():
    params = make_params(9)
    rng = np.random.default_rng(10)
    feats, boxes = _random_objects(rng, m=6)
    out = embed_objects(feats[None], boxes[None], None, params, CFG).data[0]
    perm = rng.permutation(6)
    out_p = embed_objects(feats[perm][None], boxes[perm][None], None, params, CFG).data[0]
    assert np.allclose(out[perm], out_p, atol=1e-6)


def test_per_branch_normalization_balances_scales():
    # wildly different raw scales still give unit-variance branch rows
    params = make_params(11)
    rng = np.random.default_rng(12)
    feats, boxes = _random_objects(rng, m=4)
    feats *= 1000.0
    params["emb.feat_ln.g"].data[:] = 1.0
    params["emb.feat_ln.b"].data[:] = 0.0
    params["emb.box_ln.g"].data[:] = 1.0
    params["emb.box_ln.b"].data[:] = 0.0

    fproj = feats @ params["emb.feat_w"].data + params["emb.feat_b"].data
    mu = fproj.mean(axis=-1, keepdims=True)
    var = fproj.var(axis=-1, keepdims=True)
    fhat = (fproj - mu) / np.sqrt(var + CFG.ln_eps)
    assert np.abs(fhat.var(axis=-1) - 1.0).max() < 1e-3

    out = embed_objects(feats[None], boxes[None], None, params, CFG).data[0]
    assert np.isfinite(out).all()
    assert np.abs(out).max() < 10.0


def test_feature_width_mismatch_errors():
    params = make_params()
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(4, CFG.feat_dim + 1)).astype(np.float32)
    boxes = np.zeros((4, 4), dtype=np.float32)
    with pytest.raises(ValueError, match="width"):
        embed_objects(feats[None], boxes[None], None, params, CFG)
