"""Tokenizer, vocabulary, answer table, masking statistics, synthetic corpus."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossmodal.config import MaskingConfig, ModelConfig
from crossmodal.data import (
    DEFAULT_LABELS,
    OUT_OF_TABLE,
    AnswerTable,
    BatchMaker,
    CorpusRecord,
    CrossModalBatch,
    FeatureStore,
    Vocabulary,
    build_answer_table,
    collate,
    corpus_stats,
    format_stats,
    generate_pairwise_corpus,
    generate_synthetic_corpus,
    load_corpus,
    load_pairs,
    save_corpus,
    save_pairs,
    split_words,
    tokenize,
    validate_batch,
)


# ---------------------------------------------------------------------------
# tokenizer and vocabulary


def test_tokenize_question_with_punctuation():
    vocab = Vocabulary(["who", "is", "eating", "the", "carrot", "?"])
    seq = tokenize("Who is eating the carrot?", vocab, max_len=16)
    tokens = [vocab.token_of(i) for i in seq.token_ids]
    assert tokens == ["[CLS]", "who", "is", "eating", "the", "carrot", "?", "[SEP]"]


def test_tokenize_empty_sentence():
    vocab = Vocabulary(["a"])
    seq = tokenize("", vocab, max_len=8)
    tokens = [vocab.token_of(i) for i in seq.token_ids]
    assert tokens == ["[CLS]", "[SEP]"]


def test_unknown_word_roundtrips_as_unk():
    vocab = Vocabulary(["known"])
    seq = tokenize("known zebra", vocab, max_len=8)
    assert seq.token_ids[2] == vocab.unk_id
    assert vocab.token_of(int(seq.token_ids[2])) == "[UNK]"


def test_tokenize_truncates_to_max_len():
    vocab = Vocabulary([f"w{i}" for i in range(30)])
    sentence = " ".join(f"w{i}" for i in range(30))
    seq = tokenize(sentence, vocab, max_len=10)
    assert seq.n == 10
    assert seq.token_ids[0] == vocab.cls_id
    assert seq.token_ids[-1] == vocab.sep_id


@settings(max_examples=300, deadline=None)
@given(sentence=st.text(max_size=60), max_len=st.integers(0, 24), use_sep=st.booleans())
@example(sentence="a b c", max_len=1, use_sep=True)
def test_tokenize_length_and_markers(sentence, max_len, use_sep):
    vocab = Vocabulary(["a", "b", "c", "cat"])
    if max_len < 1 + use_sep:
        with pytest.raises(ValueError, match="max_len"):
            tokenize(sentence, vocab, max_len, use_sep)
        return
    ids = tokenize(sentence, vocab, max_len, use_sep).token_ids
    assert len(ids) <= max_len
    assert ids[0] == vocab.cls_id
    assert (ids[-1] == vocab.sep_id) == use_sep


def test_config_rejects_sentence_length_without_room_for_sep():
    with pytest.raises(ValueError, match="max_sentence_len"):
        ModelConfig(max_sentence_len=1).validate()
    ModelConfig(max_sentence_len=1, use_sep=False).validate()


def test_split_words_lowercases_and_separates():
    assert split_words("A Ball, next!") == ["a", "ball", ",", "next", "!"]


def test_vocab_save_load_roundtrip(tmp_path):
    vocab = Vocabulary(["alpha", "beta"])
    path = tmp_path / "vocab.json"
    vocab.save(path)
    again = Vocabulary.load(path)
    assert again.tokens == vocab.tokens


# ---------------------------------------------------------------------------
# answer table


def _question(answer, image="img0"):
    return CorpusRecord(image, f"what is {answer} ?", True, answer, "train")


def test_answer_table_frequency_cutoff():
    records = [_question("a") for _ in range(6)] + \
              [_question("b") for _ in range(3)] + [_question("c")]
    table = build_answer_table(records, 0.9)
    assert table.answers == ["a", "b"]
    assert table.lookup("a") == 0 and table.lookup("b") == 1
    assert table.lookup("c") == OUT_OF_TABLE


def test_answer_table_full_coverage():
    records = [_question(a) for a in ("x", "y", "z", "x")]
    table = build_answer_table(records, 1.0)
    assert set(table.answers) == {"x", "y", "z"}
    for i, a in enumerate(table.answers):
        assert table.lookup(a) == i


def test_answer_table_empty_when_no_questions():
    records = [CorpusRecord("img0", "a cat", False, None, "train")]
    table = build_answer_table(records, 0.9)
    assert len(table) == 0


def test_answer_table_deterministic_tie_break():
    records = [_question(a) for a in ("n", "m")]  # equal frequency
    table = build_answer_table(records, 1.0)
    assert table.answers == ["m", "n"]


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synthetic_corpus_deterministic():
    r1, s1 = generate_synthetic_corpus(seed=5, n_images=10, label_vocab=DEFAULT_LABELS)
    r2, s2 = generate_synthetic_corpus(seed=5, n_images=10, label_vocab=DEFAULT_LABELS)
    assert r1 == r2
    for iid in s1.image_ids:
        for a, b in zip(s1.get(iid), s2.get(iid)):
            assert np.array_equal(a, b)


def test_synthetic_corpus_linear_probe_accuracy():
    # labels must be linearly decodable from raw object features
    _, store = generate_synthetic_corpus(seed=11, n_images=120, label_vocab=DEFAULT_LABELS)
    feats, labels = [], []
    for iid in store.image_ids:
        f, _, l = store.get(iid)
        feats.append(f)
        labels.append(l)
    X = np.concatenate(feats)
    y = np.concatenate(labels)
    X = np.hstack([X, np.ones((len(X), 1))])
    Y = np.eye(len(DEFAULT_LABELS))[y]
    half = len(X) // 2
    W, *_ = np.linalg.lstsq(X[:half], Y[:half], rcond=None)
    acc = ((X[half:] @ W).argmax(axis=1) == y[half:]).mean()
    assert acc >= 0.95, f"probe accuracy {acc:.3f}"


def test_synthetic_answers_covered_by_full_table():
    records, _ = generate_synthetic_corpus(seed=3, n_images=30, label_vocab=DEFAULT_LABELS)
    table = build_answer_table(records, 1.0)
    for r in records:
        if r.is_question:
            assert table.lookup(r.answer) != OUT_OF_TABLE


def test_synthetic_split_images_disjoint():
    records, _ = generate_synthetic_corpus(seed=7, n_images=40, label_vocab=DEFAULT_LABELS)
    train_imgs = {r.image_id for r in records if r.split == "train"}
    dev_imgs = {r.image_id for r in records if r.split == "dev"}
    assert train_imgs and dev_imgs
    assert not (train_imgs & dev_imgs)


def test_synthetic_boxes_and_pools_valid():
    records, store = generate_synthetic_corpus(seed=9, n_images=20, label_vocab=DEFAULT_LABELS)
    for iid in store.image_ids:
        _, boxes, labels = store.get(iid)
        assert boxes.min() >= 0.0 and boxes.max() <= 1.0
        assert (boxes[:, 0] <= boxes[:, 2]).all() and (boxes[:, 1] <= boxes[:, 3]).all()
        assert len(set(labels.tolist())) == 2  # per-image pool


def test_corpus_stats_arithmetic():
    records, _ = generate_synthetic_corpus(seed=1, n_images=100, label_vocab=DEFAULT_LABELS,
                                           dev_fraction=0.1)
    stats = corpus_stats(records)
    assert stats["all"]["pairs"] == 500
    assert stats["all"]["questions"] == 300
    assert stats["all"]["captions"] == 200
    assert stats["all"]["images"] == 100
    assert stats["train"]["images"] == 90 and stats["dev"]["images"] == 10
    assert stats["train"]["pairs"] + stats["dev"]["pairs"] == 500
    text = format_stats(stats)
    assert "train" in text and "500" in text


def test_corpus_stats_empty():
    stats = corpus_stats([])
    assert stats["all"] == {"images": 0, "captions": 0, "questions": 0, "pairs": 0}


# ---------------------------------------------------------------------------
# corpus and store formats


def test_corpus_jsonl_roundtrip(tmp_path):
    records, _ = generate_synthetic_corpus(seed=2, n_images=6, label_vocab=DEFAULT_LABELS)
    path = tmp_path / "corpus.jsonl"
    save_corpus(records, path)
    assert load_corpus(path) == records


def test_corpus_answer_invariant():
    with pytest.raises(ValueError, match="answer"):
        CorpusRecord("img0", "a cat", False, "cat", "train").validate()


def test_feature_store_binary_roundtrip(tmp_path):
    _, store = generate_synthetic_corpus(seed=4, n_images=5, label_vocab=DEFAULT_LABELS)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    store.save(p1)
    again = FeatureStore.load(p1)
    again.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert again.m == store.m and again.feat_dim == store.feat_dim
    for iid in store.image_ids:
        for a, b in zip(store.get(iid), again.get(iid)):
            assert np.array_equal(a, b)


def test_feature_store_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        FeatureStore.load(path)


def test_pairs_roundtrip(tmp_path):
    _, store = generate_synthetic_corpus(seed=6, n_images=8, label_vocab=DEFAULT_LABELS)
    pairs = generate_pairwise_corpus(store, DEFAULT_LABELS, 12, seed=0)
    path = tmp_path / "pairs.jsonl"
    save_pairs(pairs, path)
    assert load_pairs(path) == pairs
    labels = [p.label for p in pairs]
    assert any(labels) and not all(labels)


# ---------------------------------------------------------------------------
# masking and matching


def _maker(masking=None, n_images=40, seed=0):
    records, store = generate_synthetic_corpus(seed=seed, n_images=n_images,
                                               label_vocab=DEFAULT_LABELS)
    vocab = Vocabulary.from_records([r for r in records if r.split == "train"])
    table = build_answer_table([r for r in records if r.split == "train"], 1.0)
    cfg = ModelConfig(vocab_size=len(vocab), num_labels=len(DEFAULT_LABELS),
                      num_answers=len(table)).validate()
    maker = BatchMaker(records, store, vocab, table, masking or MaskingConfig(), cfg)
    return maker, records, vocab, cfg


def test_degenerate_config_leaves_record_unmodified():
    masking = MaskingConfig(word_mask_prob=0.0, object_mask_prob=0.0, mismatch_prob=0.0)
    maker, records, vocab, cfg = _maker(masking)
    rng = np.random.default_rng(0)
    record = records[0]
    row = maker.make_row(record, rng)
    expected = tokenize(record.sentence, vocab, cfg.max_sentence_len)
    assert np.array_equal(row.tokens.token_ids, expected.token_ids)
    assert (row.tokens.mlm_targets == -1).all()
    assert not row.objects.mask_flags.any()
    assert row.match_label and not row.is_question


def test_word_masking_rate_in_band():
    maker, records, vocab, _ = _maker()
    rng = np.random.default_rng(1)
    eligible = masked = 0
    i = 0
    while eligible < 100_000:
        row = maker.make_row(records[i % len(records)], rng)
        ids = row.tokens.token_ids
        eligible += int((ids >= vocab.n_special).sum())
        # targets mark every masked slot, including 10% random / 10% kept
        masked += int((row.tokens.mlm_targets >= 0).sum())
        # kept/random slots still count as eligible originals
        eligible += int(((ids < vocab.n_special) & (row.tokens.mlm_targets >= 0)).sum())
        i += 1
    rate = masked / eligible
    assert 0.133 <= rate <= 0.167, f"masked-word rate {rate:.4f}"


def test_mismatch_rate_in_band():
    maker, records, _, _ = _maker()
    rng = np.random.default_rng(2)
    n = 10_000
    mismatched = sum(
        not maker.make_row(records[i % len(records)], rng).match_label
        for i in range(n)
    )
    rate = mismatched / n
    assert 0.485 <= rate <= 0.515, f"mismatch rate {rate:.4f}"


def test_object_masking_rate_in_band():
    maker, records, _, _ = _maker()
    rng = np.random.default_rng(3)
    rows = 12_000
    total = masked = 0
    for i in range(rows):
        row = maker.make_row(records[i % len(records)], rng)
        total += row.objects.m
        masked += int(row.objects.mask_flags.sum())
    rate = masked / total
    sigma = np.sqrt(0.15 * 0.85 / total)
    assert abs(rate - 0.15) <= 3 * sigma, f"object-mask rate {rate:.4f}"


def test_mismatch_draws_from_different_image():
    maker, records, _, _ = _maker(MaskingConfig(mismatch_prob=1.0))
    rng = np.random.default_rng(4)
    for record in records[:60]:
        replacement = maker._draw_replacement(record.image_id, rng)
        assert replacement.image_id != record.image_id
        row = maker.make_row(record, rng)
        assert not row.match_label
        # the row keeps the original image's objects
        feats, _, _ = maker.store.get(record.image_id)
        assert np.array_equal(row.objects.roi_features, feats)


def test_single_image_corpus_cannot_mismatch():
    records, store = generate_synthetic_corpus(seed=8, n_images=1, label_vocab=DEFAULT_LABELS,
                                               dev_fraction=0.0)
    vocab = Vocabulary.from_records(records)
    table = build_answer_table(records, 1.0)
    cfg = ModelConfig(vocab_size=len(vocab), num_labels=len(DEFAULT_LABELS),
                      num_answers=len(table)).validate()
    with pytest.raises(ValueError, match="distinct images"):
        BatchMaker(records, store, vocab, table, MaskingConfig(), cfg)
    # with mismatching disabled a single-image corpus is fine
    BatchMaker(records, store, vocab, table,
               MaskingConfig(mismatch_prob=0.0), cfg)


def test_mask_and_match_reproducible():
    maker, records, vocab, _ = _maker()

    def run():
        rng = np.random.default_rng(99)
        batch = maker.make_batch(records[:16], rng)
        packed = collate(batch, vocab)
        return (packed.token_ids.tobytes() + packed.mlm_targets.tobytes()
                + packed.obj_mask_flags.tobytes() + packed.match_labels.tobytes())

    assert run() == run()


def test_batch_rows_satisfy_invariants():
    maker, records, vocab, cfg = _maker()
    rng = np.random.default_rng(12)
    for start in range(0, 60, 12):
        batch = maker.make_batch(records[start:start + 12], rng)
        validate_batch(batch, vocab, cfg)


def test_masked_slots_have_targets_and_regression_targets():
    maker, records, _, _ = _maker(MaskingConfig(word_mask_prob=0.9, object_mask_prob=0.9))
    rng = np.random.default_rng(13)
    row = maker.make_row(records[0], rng)
    ids = row.tokens.token_ids
    targets = row.tokens.mlm_targets
    assert (targets >= 0).any()
    mask_token_slots = ids == 4  # [MASK]
    assert np.all(targets[mask_token_slots] >= 0)
    assert row.objects.mask_flags.any()
    assert row.objects.regression_targets is not None
    assert np.array_equal(row.objects.regression_targets, row.objects.roi_features)


def test_answer_index_set_only_for_matched_questions():
    masking = MaskingConfig(word_mask_prob=0.0, object_mask_prob=0.0, mismatch_prob=0.0)
    maker, records, _, _ = _maker(masking)
    rng = np.random.default_rng(14)
    for record in records[:40]:
        row = maker.make_row(record, rng)
        if record.is_question:
            assert row.answer_index != OUT_OF_TABLE
        else:
            assert row.answer_index == OUT_OF_TABLE
