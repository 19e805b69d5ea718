"""The five pre-training losses: hand-computed values, gating, and algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossmodal.config import MaskingConfig, ModelConfig
from crossmodal.data import (
    DEFAULT_LABELS,
    BatchMaker,
    Vocabulary,
    build_answer_table,
    collate,
    generate_synthetic_corpus,
)
from crossmodal.encoders import Runtime, forward_batch
from crossmodal.heads import (
    cross_entropy,
    detected_label_loss,
    masked_lm_loss,
    masked_object_rows,
    match_loss,
    pretrain_losses,
    qa_loss,
    roi_feature_regression_loss,
)
from crossmodal.params import init_params
from crossmodal.tensor import Tape, Tensor, backward, tensor, zero_grads


def _head_env(d=4, vocab=3, labels=3, answers=5, feat=3):
    """Minimal parameter dict for driving the heads directly."""
    params = {
        "emb.word": Tensor(np.zeros((vocab, d), dtype=np.float64), requires_grad=True),
        "head.mlm_bias": Tensor(np.zeros(vocab, dtype=np.float64), requires_grad=True),
        "head.match.w": Tensor(np.zeros((d, 2), dtype=np.float64), requires_grad=True),
        "head.match.b": Tensor(np.zeros(2, dtype=np.float64), requires_grad=True),
        "head.qa.w": Tensor(np.zeros((d, answers), dtype=np.float64), requires_grad=True),
        "head.qa.b": Tensor(np.zeros(answers, dtype=np.float64), requires_grad=True),
        "head.obj_feat.w": Tensor(np.zeros((d, feat), dtype=np.float64), requires_grad=True),
        "head.obj_feat.b": Tensor(np.zeros(feat, dtype=np.float64), requires_grad=True),
        "head.obj_label.w": Tensor(np.zeros((d, labels), dtype=np.float64), requires_grad=True),
        "head.obj_label.b": Tensor(np.zeros(labels, dtype=np.float64), requires_grad=True),
    }
    return params


# ---------------------------------------------------------------------------
# masked LM


def test_mlm_no_masked_positions_is_zero():
    params = _head_env()
    lang = Tensor(np.ones((1, 4, 4)))
    targets = np.full((1, 4), -1)
    loss, count = masked_lm_loss(lang, targets, params)
    assert loss.item() == 0.0 and count == 0


def test_mlm_uniform_logits_is_log_vocab():
    params = _head_env(vocab=7)
    lang = Tensor(np.zeros((1, 3, 4)))
    targets = np.array([[-1, 4, -1]])
    loss, count = masked_lm_loss(lang, targets, params)
    assert count == 1
    assert abs(loss.item() - math.log(7)) < 1e-6


def test_mlm_hand_value():
    # logits [2, 0, 0] against target 0: word table is the identity and the
    # language row is [2, 0, 0]
    params = _head_env(d=3, vocab=3)
    params["emb.word"].data[:] = np.eye(3)
    lang = Tensor(np.array([[[2.0, 0.0, 0.0]]]))
    targets = np.array([[0]])
    loss, _ = masked_lm_loss(lang, targets, params)
    expected = -math.log(math.exp(2) / (math.exp(2) + 2))
    assert abs(loss.item() - expected) < 1e-4
    assert abs(expected - 0.2395) < 1e-4


def test_mlm_target_out_of_vocab():
    params = _head_env(vocab=3)
    lang = Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(IndexError, match="3"):
        masked_lm_loss(lang, np.array([[3, -1]]), params)


def test_mlm_gradient_zero_at_unmasked_rows_through_ce_path():
    params = _head_env(vocab=5)
    rng = np.random.default_rng(0)
    params["emb.word"].data[:] = rng.normal(size=(5, 4))
    lang = Tensor(rng.normal(size=(1, 4, 4)), requires_grad=True)
    targets = np.array([[-1, 2, -1, 4]])
    with Tape():
        loss, _ = masked_lm_loss(lang, targets, params)
        backward(loss)
    masked = targets[0] >= 0
    assert np.all(lang.grad[0, ~masked] == 0.0)
    assert np.abs(lang.grad[0, masked]).sum() > 0


# ---------------------------------------------------------------------------
# masked object prediction


def test_roi_regression_no_masked_objects_is_zero():
    params = _head_env()
    vis = Tensor(np.ones((2, 3, 4)))
    loss, count = roi_feature_regression_loss(
        vis, np.zeros((2, 3), dtype=bool), np.zeros((2, 3, 3)), params)
    assert loss.item() == 0.0 and count == 0


def test_roi_regression_perfect_prediction_is_zero():
    params = _head_env(feat=3)
    target = np.array([0.5, -0.25, 1.5])
    params["head.obj_feat.b"].data[:] = target
    vis = Tensor(np.zeros((1, 2, 4)))
    flags = np.array([[True, False]])
    loss, _ = roi_feature_regression_loss(vis, flags, np.broadcast_to(target, (1, 2, 3)), params)
    assert loss.item() < 1e-12


def test_roi_regression_hand_value_sum_of_squares():
    # prediction - target = (1, 2, 2) over feat_dim 3 for one masked object:
    # sum-of-squares per object, then mean over masked objects, gives 9
    params = _head_env(feat=3)
    params["head.obj_feat.b"].data[:] = np.array([1.0, 2.0, 2.0])
    vis = Tensor(np.zeros((1, 2, 4)))
    flags = np.array([[True, False]])
    targets = np.zeros((1, 2, 3))
    loss, count = roi_feature_regression_loss(vis, flags, targets, params)
    assert count == 1
    assert abs(loss.item() - 9.0) < 1e-6


@settings(max_examples=200, deadline=None)
@given(b=st.integers(1, 4), m=st.integers(1, 5), d=st.integers(1, 3), data=st.data())
def test_masked_object_rows_picks_flagged_objects_of_active_rows(b, m, d, data):
    flags = np.array(data.draw(st.lists(st.booleans(), min_size=b * m, max_size=b * m)),
                     dtype=bool).reshape(b, m)
    active = data.draw(st.none() | st.lists(st.booleans(), min_size=b, max_size=b).map(np.array))
    vis = Tensor(np.arange(b * m * d, dtype=np.float64).reshape(b, m, d))
    rows, picked = masked_object_rows(vis, flags, active)
    expected = [vis.data[i, j] for i in range(b) for j in range(m)
                if flags[i, j] and (active is None or active[i])]
    assert rows.shape == (len(expected), d)
    assert np.array_equal(rows.data, np.array(expected).reshape(len(expected), d))
    assert int(picked.sum()) == len(expected)


def test_label_loss_values():
    params = _head_env(labels=3)
    vis = Tensor(np.zeros((1, 2, 4)))
    flags = np.array([[True, False]])
    labels = np.array([[2, 0]])
    loss, count = detected_label_loss(vis, flags, labels, params)
    assert count == 1
    assert abs(loss.item() - math.log(3)) < 1e-6

    # logits [1, 1, 4], target 2
    params["head.obj_label.b"].data[:] = np.array([1.0, 1.0, 4.0])
    loss, _ = detected_label_loss(vis, flags, labels, params)
    expected = -math.log(math.exp(4) / (math.exp(4) + 2 * math.e))
    assert abs(loss.item() - expected) < 1e-6
    assert abs(expected - 0.0949) < 1e-4


def test_label_loss_no_masks_is_zero():
    params = _head_env()
    vis = Tensor(np.ones((1, 3, 4)))
    loss, count = detected_label_loss(vis, np.zeros((1, 3), dtype=bool),
                                      np.zeros((1, 3), dtype=np.int64), params)
    assert loss.item() == 0.0 and count == 0


def test_label_out_of_range():
    params = _head_env(labels=3)
    vis = Tensor(np.zeros((1, 1, 4)))
    with pytest.raises(IndexError, match="5"):
        detected_label_loss(vis, np.array([[True]]), np.array([[5]]), params)


# ---------------------------------------------------------------------------
# matching and QA


def test_match_uniform_is_log2():
    params = _head_env()
    cls = Tensor(np.zeros((3, 4)))
    loss, count = match_loss(cls, np.array([1, 0, 1]), params)
    assert count == 3
    assert abs(loss.item() - math.log(2)) < 1e-6


def test_match_saturated_correct_is_tiny():
    params = _head_env()
    params["head.match.b"].data[:] = np.array([0.0, 10.0])
    cls = Tensor(np.zeros((2, 4)))
    loss, _ = match_loss(cls, np.array([1, 1]), params)
    assert loss.item() < 1e-4


def test_match_hand_value():
    params = _head_env()
    params["head.match.b"].data[:] = np.array([0.5, -0.5])
    cls = Tensor(np.zeros((1, 4)))
    loss, _ = match_loss(cls, np.array([0]), params)
    expected = -math.log(math.exp(0.5) / (math.exp(0.5) + math.exp(-0.5)))
    assert abs(loss.item() - expected) < 1e-6
    assert abs(expected - 0.3133) < 1e-4


def test_qa_gating():
    params = _head_env(answers=6)
    cls = Tensor(np.zeros((1, 4)))
    # mismatched pair contributes nothing, whatever the logits
    params["head.qa.b"].data[:] = np.arange(6.0)
    loss, count = qa_loss(cls, np.array([2]), np.array([0]), np.array([True]), params)
    assert loss.item() == 0.0 and count == 0
    # captions contribute nothing
    loss, count = qa_loss(cls, np.array([2]), np.array([1]), np.array([False]), params)
    assert loss.item() == 0.0 and count == 0
    # out-of-table answers are skipped
    loss, count = qa_loss(cls, np.array([-1]), np.array([1]), np.array([True]), params)
    assert loss.item() == 0.0 and count == 0
    # qa_enabled=False forces zero
    loss, count = qa_loss(cls, np.array([2]), np.array([1]), np.array([True]), params,
                          qa_enabled=False)
    assert loss.item() == 0.0 and count == 0


def test_qa_matched_uniform_is_log_table_size():
    params = _head_env(answers=9)
    cls = Tensor(np.zeros((2, 4)))
    loss, count = qa_loss(cls, np.array([4, 1]), np.array([1, 1]),
                          np.array([True, True]), params)
    assert count == 2
    assert abs(loss.item() - math.log(9)) < 1e-6


# ---------------------------------------------------------------------------
# bundle algebra on real batches


def _real_batch(seed=0, batch=8, masking=None):
    records, store = generate_synthetic_corpus(seed=seed, n_images=12,
                                               label_vocab=DEFAULT_LABELS)
    vocab = Vocabulary.from_records([r for r in records if r.split == "train"])
    table = build_answer_table([r for r in records if r.split == "train"], 1.0)
    cfg = ModelConfig(vocab_size=len(vocab), num_labels=len(DEFAULT_LABELS),
                      num_answers=len(table), dropout=0.0).validate()
    params = init_params(cfg, np.random.default_rng(seed))
    maker = BatchMaker(records, store, vocab, table, masking or MaskingConfig(), cfg)
    rng = np.random.default_rng(seed + 1)
    rows = maker.make_batch(records[:batch], rng)
    packed = collate(rows, vocab)
    return packed, params, cfg


def test_total_equals_sum_of_parts_on_random_batches():
    for seed in range(4):
        packed, params, cfg = _real_batch(seed)
        out = forward_batch(packed, params, cfg)
        bundle = pretrain_losses(packed, out, params)
        parts = (bundle.mlm.item() + bundle.obj_feat.item() + bundle.obj_label.item()
                 + bundle.match.item() + bundle.qa.item())
        assert abs(bundle.total.item() - parts) < 1e-6


def test_qa_toggle_changes_total_by_exactly_qa_term():
    packed, params, cfg = _real_batch(5)
    out = forward_batch(packed, params, cfg)
    on = pretrain_losses(packed, out, params, qa_enabled=True)
    out2 = forward_batch(packed, params, cfg)
    off = pretrain_losses(packed, out2, params, qa_enabled=False)
    assert off.qa.item() == 0.0
    assert abs((on.total.item() - off.total.item()) - on.qa.item()) < 1e-6


def test_gating_composition_match_only():
    # no masked words, no masked objects, all matched captions, qa disabled:
    # the total reduces to the match term
    masking = MaskingConfig(word_mask_prob=0.0, object_mask_prob=0.0, mismatch_prob=0.0)
    packed, params, cfg = _real_batch(6, masking=masking)
    packed.is_question[:] = False
    packed.answer_indices[:] = -1
    out = forward_batch(packed, params, cfg)
    bundle = pretrain_losses(packed, out, params, qa_enabled=False)
    assert bundle.mlm.item() == 0.0
    assert bundle.obj_feat.item() == 0.0
    assert bundle.obj_label.item() == 0.0
    assert bundle.qa.item() == 0.0
    assert abs(bundle.total.item() - bundle.match.item()) < 1e-9


def test_all_losses_nonnegative():
    for seed in range(3):
        packed, params, cfg = _real_batch(seed + 20)
        out = forward_batch(packed, params, cfg)
        bundle = pretrain_losses(packed, out, params)
        for value in bundle.floats().values():
            assert value >= 0.0


def test_qa_head_gradient_exactly_zero_on_all_mismatched_batch():
    packed, params, cfg = _real_batch(7)
    packed.match_labels[:] = 0
    packed.answer_indices[:] = -1
    zero_grads(params)
    with Tape():
        out = forward_batch(packed, params, cfg)
        bundle = pretrain_losses(packed, out, params, qa_enabled=True)
        backward(bundle.total)
    assert np.all(params["head.qa.w"].grad == 0.0)
    assert np.all(params["head.qa.b"].grad == 0.0)


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(6, 5))
    targets = rng.integers(0, 5, size=6)
    value = cross_entropy(tensor(logits), targets).item()
    expected = 0.0
    for i in range(6):
        z = logits[i] - logits[i].max()
        expected += -(z[targets[i]] - math.log(np.exp(z).sum()))
    expected /= 6
    assert abs(value - expected) < 1e-6
