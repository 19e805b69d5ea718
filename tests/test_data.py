"""Tokenizer, vocabulary, answer table, masking statistics, synthetic corpus."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossmodal.config import MaskingConfig, ModelConfig
from crossmodal.data import (
    DEFAULT_LABELS,
    OUT_OF_TABLE,
    AnswerTable,
    BatchMaker,
    BatchRow,
    CorpusFormatError,
    CorpusRecord,
    CrossModalBatch,
    FeatureStore,
    FeatureStoreError,
    PairRecord,
    Vocabulary,
    build_answer_table,
    collate,
    corpus_stats,
    format_stats,
    generate_pairwise_corpus,
    generate_synthetic_corpus,
    load_corpus,
    load_pairs,
    load_string_list,
    plain_row,
    save_corpus,
    save_pairs,
    split_words,
    tokenize,
)


# ---------------------------------------------------------------------------
# tokenizer and vocabulary


def test_tokenize_question_with_punctuation():
    vocab = Vocabulary(["who", "is", "eating", "the", "carrot", "?"])
    ids = tokenize("Who is eating the carrot?", vocab, max_len=16)
    tokens = [vocab.token_of(i) for i in ids]
    assert tokens == ["[CLS]", "who", "is", "eating", "the", "carrot", "?", "[SEP]"]


def test_tokenize_empty_sentence():
    vocab = Vocabulary(["a"])
    ids = tokenize("", vocab, max_len=8)
    tokens = [vocab.token_of(i) for i in ids]
    assert tokens == ["[CLS]", "[SEP]"]


def test_unknown_word_roundtrips_as_unk():
    vocab = Vocabulary(["known"])
    ids = tokenize("known zebra", vocab, max_len=8)
    assert ids[2] == vocab.unk_id
    assert vocab.token_of(int(ids[2])) == "[UNK]"


def test_tokenize_truncates_to_max_len():
    vocab = Vocabulary([f"w{i}" for i in range(30)])
    sentence = " ".join(f"w{i}" for i in range(30))
    ids = tokenize(sentence, vocab, max_len=10)
    assert len(ids) == 10
    assert ids[0] == vocab.cls_id
    assert ids[-1] == vocab.sep_id


@settings(max_examples=300, deadline=None)
@given(sentence=st.text(max_size=60), max_len=st.integers(0, 24))
@example(sentence="a b c", max_len=1)
def test_tokenize_length_and_markers(sentence, max_len):
    vocab = Vocabulary(["a", "b", "c", "cat"])
    if max_len < 2:
        with pytest.raises(ValueError, match="max_len"):
            tokenize(sentence, vocab, max_len)
        return
    ids = tokenize(sentence, vocab, max_len)
    assert len(ids) <= max_len
    assert ids[0] == vocab.cls_id
    assert ids[-1] == vocab.sep_id


def test_config_rejects_sentence_length_without_room_for_sep():
    with pytest.raises(ValueError, match="max_sentence_len"):
        ModelConfig(max_sentence_len=1).validate()


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


@pytest.mark.parametrize("dev_fraction", [1.5, -1.0, float("nan")])
def test_generators_reject_dev_fraction_outside_unit_interval(dev_fraction):
    with pytest.raises(ValueError, match="dev_fraction"):
        generate_synthetic_corpus(seed=0, n_images=4, dev_fraction=dev_fraction)
    _, store = generate_synthetic_corpus(seed=0, n_images=4)
    with pytest.raises(ValueError, match="dev_fraction"):
        generate_pairwise_corpus(store, DEFAULT_LABELS, 4, seed=0, dev_fraction=dev_fraction)


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


_SPLITS = st.sampled_from(("train", "dev"))


@st.composite
def _corpus_records(draw):
    is_question = draw(st.booleans())
    answer = draw(st.none() | st.text()) if is_question else None
    return CorpusRecord(draw(st.text()), draw(st.text()), is_question, answer, draw(_SPLITS))


@settings(max_examples=100, deadline=None)
@given(records=st.lists(_corpus_records(), max_size=6))
def test_corpus_jsonl_roundtrip_arbitrary_text(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    save_corpus(records, path)
    assert load_corpus(path) == records


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.builds(PairRecord, st.text(), st.text(), st.text(), st.booleans(),
                                _SPLITS), max_size=6))
def test_pairs_jsonl_roundtrip_arbitrary_text(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("pairs") / "pairs.jsonl"
    save_pairs(pairs, path)
    assert load_pairs(path) == pairs


_GOOD_LINES = {
    "corpus": (load_corpus, {"image_id": "img0", "sentence": "is it ?", "is_question": True,
                             "answer": "yes", "split": "train"}),
    "pairs": (load_pairs, {"image_id_0": "img0", "image_id_1": "img1", "sentence": "two",
                           "label": True, "split": "train"}),
}


@pytest.mark.parametrize("reader", sorted(_GOOD_LINES))
def test_jsonl_reader_rejects_a_line_that_is_not_an_object(reader, tmp_path):
    load, good = _GOOD_LINES[reader]
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(good) + "\n[1, 2]\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load(path)


@pytest.mark.parametrize("reader, field, value", [
    ("corpus", "is_question", "no"), ("corpus", "is_question", 1), ("corpus", "sentence", 3),
    ("corpus", "split", None), ("corpus", "answer", 2),
    ("pairs", "label", "no"), ("pairs", "label", 1), ("pairs", "sentence", 3),
    ("pairs", "split", None),
])
def test_jsonl_reader_rejects_fields_of_the_wrong_type(reader, field, value, tmp_path):
    load, good = _GOOD_LINES[reader]
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    with pytest.raises(CorpusFormatError, match=f"line 2: {field}"):
        load(path)


@pytest.mark.parametrize("reader, change, message", [
    ("corpus", {"split": "test"}, "unknown split tag 'test'"),
    ("corpus", {"is_question": False}, "record for image img0: answer on a non-question"),
    ("pairs", {"split": "test"}, "unknown split tag 'test'"),
    ("corpus", {"image_id": None}, "missing field 'image_id'"),
    ("pairs", {"label": None}, "missing field 'label'"),
])
def test_jsonl_reader_rejects_an_invalid_record(reader, change, message, tmp_path):
    load, good = _GOOD_LINES[reader]
    row = {k: v for k, v in {**good, **change}.items() if v is not None}
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(good) + "\n\n" + json.dumps(row) + "\n")
    with pytest.raises(CorpusFormatError, match=f"{path} line 3: {message}"):
        load(path)


@pytest.mark.parametrize("reader", sorted(_GOOD_LINES))
def test_jsonl_reader_names_the_line_that_is_not_json(reader, tmp_path):
    load, good = _GOOD_LINES[reader]
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(good)[:-1] + "\n")
    with pytest.raises(CorpusFormatError, match=f"{path} line 2: not JSON"):
        load(path)


def _load_from_bytes(load, raw: bytes, name: str):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, name)
        with open(path, "wb") as fh:
            fh.write(raw)
        return load(path)


def _saved_bytes(save, value, name: str) -> bytes:
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, name)
        save(value, path)
        with open(path, "rb") as fh:
            return fh.read()


def _small_store_bytes() -> bytes:
    """Two images of four objects with four features: a store of a few hundred bytes."""
    store = FeatureStore(4, 4)
    for i in range(2):
        store.add(f"img-{i}", np.arange(16.0).reshape(4, 4) + i, np.ones((4, 4)), np.arange(4) + i)
    return _saved_bytes(FeatureStore.save, store, "features.bin")


STORE_BYTES = _small_store_bytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=len(STORE_BYTES) - 1))
def test_feature_store_truncated_anywhere_is_a_feature_store_error(cut):
    with pytest.raises(FeatureStoreError):
        _load_from_bytes(FeatureStore.load, STORE_BYTES[:cut], "features.bin")


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=len(STORE_BYTES) - 1), st.integers(1, 255))
# the high bytes of m and feat_dim, once read as that many bytes (MemoryError)
@example(11, 0xFF)
@example(15, 0xFF)
def test_feature_store_with_one_flipped_byte_loads_or_raises_a_feature_store_error(offset, xor):
    raw = bytearray(STORE_BYTES)
    raw[offset] ^= xor
    try:
        _load_from_bytes(FeatureStore.load, bytes(raw), "features.bin")
    except FeatureStoreError:
        pass


_JSONL_BYTES = {
    "corpus": (load_corpus, _saved_bytes(save_corpus, [
        CorpusRecord("img-0", "is the cat left of the dog ?", True, "yes", "train"),
        CorpusRecord("img-1", "a caf\u00e9 sign", False, None, "dev")], "corpus.jsonl")),
    "pairs": (load_pairs, _saved_bytes(save_pairs, [
        PairRecord("img-0", "img-1", "both show a cat", True, "train"),
        PairRecord("img-1", "img-0", "neither shows a dog", False, "dev")], "pairs.jsonl")),
}


@pytest.mark.parametrize("reader", sorted(_JSONL_BYTES))
def test_jsonl_reader_names_the_line_that_is_not_utf8(reader):
    load, raw = _JSONL_BYTES[reader]
    second = raw.index(b"\n") + 1
    broken = raw[:second + 5] + b"\xff" + raw[second + 6:]
    with pytest.raises(CorpusFormatError, match="line 2: not UTF-8"):
        _load_from_bytes(load, broken, "records.jsonl")


@pytest.mark.parametrize("reader", sorted(_JSONL_BYTES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_jsonl_reader_truncated_or_with_one_flipped_byte_loads_or_raises_a_format_error(
        reader, data):
    load, raw = _JSONL_BYTES[reader]
    raw = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="offset")] ^= data.draw(
            st.integers(1, 255), label="xor")
    try:
        _load_from_bytes(load, bytes(raw), "records.jsonl")
    except CorpusFormatError:
        pass


def _load_labels(path):
    return load_string_list(path, "labels")


_LIST_BYTES = {
    "vocab": (Vocabulary.load, _saved_bytes(Vocabulary.save, Vocabulary(["cat", "caf\u00e9"]),
                                            "vocab.json")),
    "labels": (_load_labels, json.dumps({"labels": ["dog", "caf\u00e9"]}).encode("utf-8")),
}


@pytest.mark.parametrize("reader, text, fault", [
    ("vocab", b'{"tokens": ["a", "\xff"]}', "codec can't decode"),
    ("vocab", b'{"tokens": ["a", "a"]}', "duplicate tokens"),
    ("vocab", b'{"tokens": ["a", 3]}', "tokens must be a list of strings"),
    ("vocab", b'["a"]', "tokens must be a list of strings"),
    ("labels", b'{"labels": 3}', "labels must be a list of strings"),
    ("labels", b'{"names": ["a"]}', "labels must be a list of strings"),
    ("labels", b'{"labels": ["a"', "Expecting"),
])
def test_string_list_file_fault_is_a_format_error_naming_the_file(reader, text, fault):
    with pytest.raises(CorpusFormatError, match=f"list.json: .*{fault}"):
        _load_from_bytes(_LIST_BYTES[reader][0], text, "list.json")


@pytest.mark.parametrize("reader", sorted(_LIST_BYTES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_string_list_reader_truncated_or_with_one_flipped_byte_loads_or_raises_a_format_error(
        reader, data):
    load, raw = _LIST_BYTES[reader]
    raw = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="offset")] ^= data.draw(
            st.integers(1, 255), label="xor")
    try:
        _load_from_bytes(load, bytes(raw), "list.json")
    except CorpusFormatError:
        pass


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
    assert np.array_equal(row.token_ids, expected)
    assert (row.mlm_targets == -1).all()
    assert not row.obj_mask_flags.any()
    assert row.match_label and not row.is_question


def test_word_masking_rate_in_band():
    maker, records, vocab, _ = _maker()
    rng = np.random.default_rng(1)
    eligible = masked = 0
    i = 0
    while eligible < 100_000:
        row = maker.make_row(records[i % len(records)], rng)
        ids = row.token_ids
        eligible += int((ids >= vocab.n_special).sum())
        # targets mark every masked slot, including 10% random / 10% kept
        masked += int((row.mlm_targets >= 0).sum())
        # kept/random slots still count as eligible originals
        eligible += int(((ids < vocab.n_special) & (row.mlm_targets >= 0)).sum())
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
        total += len(row.obj_mask_flags)
        masked += int(row.obj_mask_flags.sum())
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
        assert np.array_equal(row.roi_features, feats)


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


_POOL = ["a red cube", "a blue ball", "two green cones", "one small box", "a big red ball"]


@settings(max_examples=60, deadline=None)
@given(sentences=st.lists(st.sets(st.sampled_from(_POOL), min_size=1), min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(sentences=[set(_POOL[:2]), {_POOL[0]}], seed=0)  # one image has every sentence
@example(sentences=[set(_POOL[:2]), set(_POOL[:2])], seed=0)  # two images, the same sentences
def test_a_mismatched_row_never_carries_a_sentence_of_its_own_image(sentences, seed):
    store = FeatureStore(m=2, feat_dim=3)
    records = []
    for i, own in enumerate(sentences):
        store.add(f"img{i}", np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2))
        records += [CorpusRecord(f"img{i}", sentence, is_question=False)
                    for sentence in sorted(own)]
    vocab = Vocabulary.from_records(records)
    cfg = ModelConfig(vocab_size=len(vocab), num_labels=2, objects_per_image=2, feat_dim=3)
    masking = MaskingConfig(word_mask_prob=0.0, object_mask_prob=0.0, mismatch_prob=1.0)
    corpus = set().union(*sentences)
    if len(sentences) < 2 or any(own == corpus for own in sentences):
        with pytest.raises(ValueError, match="distinct images"):
            BatchMaker(records, store, vocab, AnswerTable([]), masking, cfg)
        return
    maker = BatchMaker(records, store, vocab, AnswerTable([]), masking, cfg)
    rng = np.random.default_rng(seed)
    for record in records * 5:
        own = {tokenize(t, vocab, cfg.max_sentence_len).tobytes()
               for t in sentences[int(record.image_id[3:])]}
        row = maker.make_row(record, rng)
        assert not row.match_label
        assert row.token_ids.tobytes() not in own


@pytest.fixture(scope="module")
def seeded_maker():
    return _maker()


def _band(count: int, trials: int, p: float) -> bool:
    """``count`` successes of ``trials`` lie within 5 binomial sigma of ``p``."""
    return abs(count - p * trials) <= 5 * np.sqrt(trials * p * (1 - p))


_RATE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.02, 0.98))


@settings(max_examples=25, deadline=None)
@given(word=_RATE, obj=_RATE, mismatch=_RATE, seed=st.integers(0, 2 ** 32 - 1))
def test_make_row_masking_rates_sit_in_binomial_bands(seeded_maker, word, obj, mismatch, seed):
    base, records, vocab, cfg = seeded_maker
    masking = MaskingConfig(word_mask_prob=word, object_mask_prob=obj, mismatch_prob=mismatch)
    maker = BatchMaker(records, base.store, vocab, base.answer_table, masking, cfg)
    sentences = {}
    for r in records:
        ids = tokenize(r.sentence, vocab, cfg.max_sentence_len).tobytes()
        sentences.setdefault(ids, set()).add(r.image_id)
    rng = np.random.default_rng(seed)
    n_rows = 1500
    eligible = masked = to_mask = kept = mismatched = objects = flagged = 0
    for i in range(n_rows):
        record = records[i % len(records)]
        row = maker.make_row(record, rng)
        ids, targets = row.token_ids, row.mlm_targets
        hit = targets >= 0
        original = np.where(hit, targets, ids)
        # special tokens ([CLS], [SEP], [UNK]) are never masked
        assert (original[hit] >= vocab.n_special).all()
        assert (ids[~hit] == original[~hit]).all()
        eligible += int((original >= vocab.n_special).sum())
        masked += int(hit.sum())
        to_mask += int((ids[hit] == vocab.mask_id).sum())
        kept += int((ids[hit] == targets[hit]).sum())
        # a random replacement is never a special token
        assert (ids[hit & (ids != vocab.mask_id)] >= vocab.n_special).all()
        objects += len(row.obj_mask_flags)
        flagged += int(row.obj_mask_flags.sum())
        if not row.match_label:
            mismatched += 1
            # the row keeps its image and carries a sentence of another image
            assert np.array_equal(row.roi_features, maker.store.get(record.image_id)[0])
            assert sentences[original.tobytes()] - {record.image_id}
            assert row.answer_index == OUT_OF_TABLE
    assert _band(masked, eligible, word), (masked, eligible, word)
    assert _band(flagged, objects, obj), (flagged, objects, obj)
    assert _band(mismatched, n_rows, mismatch), (mismatched, n_rows, mismatch)
    # masked slots resolve 80/10/10 to [MASK] / a random word / unchanged; a
    # random word equals the original with probability 1 / (non-special words)
    assert _band(to_mask, masked, 0.8), (to_mask, masked)
    same = 0.1 + 0.1 / (len(vocab) - vocab.n_special)
    assert _band(kept, masked, same), (kept, masked)


# the dtype of every PackedBatch field, and the row field each one stacks
PACKED_DTYPES = {
    "token_ids": np.int64, "token_mask": np.bool_, "mlm_targets": np.int64,
    "roi_features": np.float32, "boxes": np.float32, "detected_labels": np.int64,
    "obj_mask_flags": np.bool_, "obj_real": np.bool_, "match_labels": np.int64,
    "answer_indices": np.int64, "is_question": np.bool_,
}
STACKED = {"roi_features": "roi_features", "boxes": "boxes",
           "detected_labels": "detected_labels", "obj_mask_flags": "obj_mask_flags",
           "match_labels": "match_label", "answer_indices": "answer_index",
           "is_question": "is_question"}


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(2, ModelConfig().max_sentence_len), min_size=1, max_size=6),
       m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_collate_pads_tokens_and_stacks_the_rest(lengths, m, seed):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary([f"w{i}" for i in range(20)])
    rows = [BatchRow(rng.integers(0, len(vocab), size=n),
                     rng.integers(-1, len(vocab), size=n),
                     rng.normal(size=(m, 3)).astype(np.float32),
                     rng.uniform(size=(m, 4)).astype(np.float32),
                     rng.integers(0, 16, size=m).astype(np.int32),
                     rng.random(m) < 0.5,
                     bool(rng.random() < 0.5), int(rng.integers(-1, 5)), bool(rng.random() < 0.5))
            for n in lengths]
    packed = collate(CrossModalBatch(rows), vocab)
    for name, dtype in PACKED_DTYPES.items():
        assert getattr(packed, name).dtype == dtype, name
    assert packed.token_ids.shape == (len(rows), max(lengths))
    assert packed.obj_real.shape == (len(rows), m) and packed.obj_real.all()
    for i, (row, n) in enumerate(zip(rows, lengths)):
        assert np.array_equal(packed.token_mask[i], np.arange(max(lengths)) < n)
        assert np.array_equal(packed.token_ids[i, :n], row.token_ids)
        assert (packed.token_ids[i, n:] == vocab.pad_id).all()
        assert np.array_equal(packed.mlm_targets[i, :n], row.mlm_targets)
        assert (packed.mlm_targets[i, n:] == -1).all()
        for name, field in STACKED.items():
            assert np.array_equal(getattr(packed, name)[i], getattr(row, field)), name


def test_plain_row_round_trips_through_collate():
    maker, records, vocab, cfg = _maker()
    record = next(r for r in records if r.is_question)
    row = plain_row(record.image_id, record.sentence, maker.store, vocab, cfg,
                    is_question=True, answer_index=3)
    packed = collate(CrossModalBatch([row]), vocab)
    assert packed.token_mask.all()
    assert np.array_equal(packed.token_ids[0], tokenize(record.sentence, vocab,
                                                        cfg.max_sentence_len))
    assert (packed.mlm_targets == -1).all()
    feats, boxes, labels = maker.store.get(record.image_id)
    assert np.array_equal(packed.roi_features[0], feats)
    assert np.array_equal(packed.boxes[0], boxes)
    assert np.array_equal(packed.detected_labels[0], labels)
    assert not packed.obj_mask_flags.any()
    assert packed.match_labels.tolist() == [1] and packed.answer_indices.tolist() == [3]
    assert packed.is_question.tolist() == [True]
    for name, field in STACKED.items():
        assert np.array_equal(getattr(packed, name)[0], getattr(row, field)), name


def test_mask_and_match_reproducible():
    maker, records, vocab, _ = _maker()

    def run():
        rng = np.random.default_rng(99)
        batch = maker.make_batch(records[:16], rng)
        packed = collate(batch, vocab)
        return (packed.token_ids.tobytes() + packed.mlm_targets.tobytes()
                + packed.obj_mask_flags.tobytes() + packed.match_labels.tobytes())

    assert run() == run()


def test_masked_slots_have_targets_and_regression_targets():
    maker, records, _, _ = _maker(MaskingConfig(word_mask_prob=0.9, object_mask_prob=0.9))
    rng = np.random.default_rng(13)
    row = maker.make_row(records[0], rng)
    ids = row.token_ids
    targets = row.mlm_targets
    assert (targets >= 0).any()
    mask_token_slots = ids == 4  # [MASK]
    assert np.all(targets[mask_token_slots] >= 0)
    assert row.obj_mask_flags.any()
    assert np.array_equal(row.roi_features, maker.store.get(records[0].image_id)[0])


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
