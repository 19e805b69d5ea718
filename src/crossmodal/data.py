"""Corpus formats, tokenizer, masking and matching policies, the answer
table, synthetic corpus generation, and corpus statistics.

On-disk formats (documented byte-exact in docs/formats.md):
  - corpus: one JSON record per line with fields
    image_id / sentence / is_question / answer / split
  - feature store: little-endian binary, fixed header then per-image blocks
  - pair corpus: one JSON record per line with fields
    image_id_0 / image_id_1 / sentence / label / split

One example is a ``BatchRow``: ``PackedBatch``'s per-row fields, unpadded.
``plain_row`` builds it unmasked from the tokenizer's int64 ids and the
feature store's arrays, which it shares; ``BatchMaker.make_row`` masks its
own token, target and mask-flag arrays in place. ``collate`` pads the two
token fields, stacks the rest, and is the one place dtypes are coerced. A
batch carries each object's unmasked features once, in ``roi_features``:
they are the masked-object regression target, and the object embedder
zeroes the masked rows before projecting them.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .atomic import atomic_open
from .config import MaskingConfig, ModelConfig

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)

OUT_OF_TABLE = -1

# how a masked word slot resolves (BERT): [MASK], a random word, else unchanged
_MASK_TOKEN_FRAC = 0.8
_RANDOM_TOKEN_FRAC = 0.1

_WORD_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


def split_words(sentence: str) -> list[str]:
    """Lowercase and split into words, separating punctuation."""
    return _WORD_RE.findall(sentence.lower())


class Vocabulary:
    """Token string <-> id map with the five special tokens at ids 0..4."""

    def __init__(self, words: list[str]):
        self.tokens = list(SPECIAL_TOKENS) + list(words)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    n_special = len(SPECIAL_TOKENS)
    pad_id, unk_id, cls_id, sep_id, mask_id = range(len(SPECIAL_TOKENS))

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, self.unk_id)

    def token_of(self, token_id: int) -> str:
        return self.tokens[token_id]

    @classmethod
    def from_records(cls, records) -> "Vocabulary":
        counts = Counter()
        for r in records:
            counts.update(split_words(r.sentence))
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls([w for w, _ in ranked])

    def save(self, path) -> None:
        with atomic_open(path) as fh:
            json.dump({"tokens": self.tokens[self.n_special:]}, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return load_string_list(path, "tokens", cls)


class AnswerTable:
    """Dense index over the most frequent answer strings."""

    def __init__(self, answers: list[str]):
        self.answers = list(answers)
        self.index = {a: i for i, a in enumerate(self.answers)}

    def __len__(self) -> int:
        return len(self.answers)

    def lookup(self, answer: str | None) -> int:
        if answer is None:
            return OUT_OF_TABLE
        return self.index.get(answer, OUT_OF_TABLE)


def build_answer_table(records, coverage_target: float) -> AnswerTable:
    """Smallest most-frequent-first table covering ``coverage_target`` of questions.

    Ties between equally frequent answers break lexicographically.
    """
    if not 0.0 < coverage_target <= 1.0:
        raise ValueError(f"coverage_target must be in (0, 1], got {coverage_target}")
    counts = Counter(r.answer for r in records if r.is_question and r.answer is not None)
    total = sum(counts.values())
    if total == 0:
        return AnswerTable([])
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    chosen, covered = [], 0
    for answer, n in ranked:
        chosen.append(answer)
        covered += n
        if covered / total >= coverage_target:
            break
    return AnswerTable(chosen)


# ---------------------------------------------------------------------------
# records and modality inputs


def _check_split(split: str) -> None:
    if split not in ("train", "dev"):
        raise ValueError(f"unknown split tag {split!r}")


@dataclass
class CorpusRecord:
    image_id: str
    sentence: str
    is_question: bool
    answer: str | None = None
    split: str = "train"

    def validate(self) -> "CorpusRecord":
        if self.answer is not None and not self.is_question:
            raise ValueError(f"record for image {self.image_id}: answer on a non-question")
        _check_split(self.split)
        return self


class CorpusFormatError(ValueError):
    """A corpus or pair file line, or a vocabulary or label file, that is not
    valid in the documented types."""


def load_string_list(path, key: str, make=list):
    """``make(strings)`` for the list of strings under ``key`` of the JSON
    object in ``path`` (``vocab.json``, ``labels.json``). Any other content,
    or a list ``make`` rejects, raises ``CorpusFormatError`` naming the path."""
    try:
        with open(path, "rb") as fh:
            data = json.loads(fh.read().decode("utf-8"))
        strings = data.get(key) if isinstance(data, dict) else None
        if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
            raise ValueError(f"{key} must be a list of strings")
        return make(strings)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


def _save_jsonl(rows, path) -> None:
    """One JSON object per line, in order."""
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")


def _load_jsonl(path, types: dict[str, tuple[type, ...]], make) -> list:
    """``make(row)`` for the JSON object ``row`` on each non-blank line.

    Each field named in ``types`` that the object holds must be an instance
    of one of its types. A line that is not JSON, not an object, holds a
    field of the wrong type, lacks a field ``make`` reads, or that ``make``
    rejects with a ``ValueError`` raises ``CorpusFormatError`` naming the
    path and the line; so does a line that is not UTF-8.
    """
    records = []
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, 1):
            where = f"{path} line {n}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"{where}: not UTF-8 ({exc})") from exc
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise CorpusFormatError(f"{where}: not JSON ({exc})") from exc
            if not isinstance(row, dict):
                raise CorpusFormatError(f"{where}: not a JSON object")
            for name, allowed in types.items():
                if name in row and not isinstance(row[name], allowed):
                    raise CorpusFormatError(
                        f"{where}: {name} must be "
                        f"{' or '.join(t.__name__ for t in allowed)}, got {row[name]!r}")
            try:
                records.append(make(row))
            except KeyError as exc:
                raise CorpusFormatError(f"{where}: missing field {exc}") from exc
            except ValueError as exc:
                raise CorpusFormatError(f"{where}: {exc}") from exc
    return records


def save_corpus(records, path) -> None:
    _save_jsonl((asdict(r) for r in records), path)


def load_corpus(path) -> list[CorpusRecord]:
    types = {"image_id": (str,), "sentence": (str,), "is_question": (bool,),
             "answer": (str, type(None)), "split": (str,)}
    return _load_jsonl(path, types, lambda d: CorpusRecord(
        d["image_id"], d["sentence"], d["is_question"], d.get("answer"),
        d.get("split", "train")).validate())


@dataclass
class PairRecord:
    """Two-image statement for pairwise fine-tuning."""

    image_id_0: str
    image_id_1: str
    sentence: str
    label: bool
    split: str = "train"

    def validate(self) -> "PairRecord":
        _check_split(self.split)
        return self


def save_pairs(pairs, path) -> None:
    _save_jsonl(({**asdict(p), "label": bool(p.label)} for p in pairs), path)


def load_pairs(path) -> list[PairRecord]:
    types = {"image_id_0": (str,), "image_id_1": (str,), "sentence": (str,),
             "label": (bool,), "split": (str,)}
    return _load_jsonl(path, types, lambda d: PairRecord(
        d["image_id_0"], d["image_id_1"], d["sentence"], d["label"],
        d.get("split", "train")).validate())


def tokenize(sentence: str, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Int64 ids of [CLS] words... [SEP], truncated to ``max_len`` ids."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2 ([CLS] and [SEP]), got {max_len}")
    words = split_words(sentence)[:max_len - 2]
    ids = [vocab.cls_id] + [vocab.id_of(w) for w in words] + [vocab.sep_id]
    return np.array(ids, dtype=np.int64)


# ---------------------------------------------------------------------------
# feature store (binary, little-endian)

_STORE_MAGIC = b"XMFS"
_STORE_VERSION = 1


class FeatureStoreError(ValueError):
    """A feature store file that is not one, or is truncated or corrupt."""


def read_exact(fh, n: int, size: int, error: type[Exception] = FeatureStoreError,
               what: str = "feature store") -> bytes:
    """``n`` bytes from ``fh``, a ``what`` file of ``size`` bytes.

    A length, count or extent that runs past the end of the file raises
    ``error`` before the read, so a corrupt one never becomes an allocation
    of that many bytes. The feature store and checkpoint readers share it.
    """
    if n > size - fh.tell():
        raise error(f"unexpected end of {what} file")
    return fh.read(n)


class FeatureStore:
    """Per-image object features, boxes and detected labels, fixed m per store."""

    def __init__(self, m: int, feat_dim: int):
        self.m = int(m)
        self.feat_dim = int(feat_dim)
        self._images: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def image_ids(self) -> list[str]:
        return list(self._images.keys())

    def add(self, image_id: str, feats, boxes, labels) -> None:
        feats = np.ascontiguousarray(feats, dtype=np.float32)
        boxes = np.ascontiguousarray(boxes, dtype=np.float32)
        labels = np.ascontiguousarray(labels, dtype=np.int32)
        if feats.shape != (self.m, self.feat_dim):
            raise ValueError(f"features for {image_id}: shape {feats.shape}, expected {(self.m, self.feat_dim)}")
        if boxes.shape != (self.m, 4) or labels.shape != (self.m,):
            raise ValueError(f"boxes/labels for {image_id} have wrong shapes")
        self._images[image_id] = (feats, boxes, labels)

    def get(self, image_id: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        try:
            return self._images[image_id]
        except KeyError:
            raise KeyError(f"image id {image_id!r} not in feature store") from None

    def save(self, path) -> None:
        with atomic_open(path, "wb") as fh:
            fh.write(_STORE_MAGIC)
            fh.write(struct.pack("<IIII", _STORE_VERSION, self.m, self.feat_dim, len(self._images)))
            for image_id, (feats, boxes, labels) in self._images.items():
                raw = image_id.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(feats.astype("<f4").tobytes())
                fh.write(boxes.astype("<f4").tobytes())
                fh.write(labels.astype("<i4").tobytes())

    @classmethod
    def load(cls, path) -> "FeatureStore":
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic = fh.read(4)
            if magic != _STORE_MAGIC:
                raise FeatureStoreError(f"not a feature store file (magic {magic!r})")
            version, m, feat_dim, count = struct.unpack("<IIII", read_exact(fh, 16, size))
            if version != _STORE_VERSION:
                raise FeatureStoreError(f"unsupported feature store version {version}")
            store = cls(m, feat_dim)
            for _ in range(count):
                (id_len,) = struct.unpack("<I", read_exact(fh, 4, size))
                try:
                    image_id = read_exact(fh, id_len, size).decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FeatureStoreError(f"corrupt image id: {exc}") from exc
                feats = np.frombuffer(read_exact(fh, 4 * m * feat_dim, size), dtype="<f4")
                boxes = np.frombuffer(read_exact(fh, 4 * m * 4, size), dtype="<f4")
                labels = np.frombuffer(read_exact(fh, 4 * m, size), dtype="<i4")
                store.add(image_id, feats.reshape(m, feat_dim), boxes.reshape(m, 4),
                          labels.astype(np.int32))
        return store


# ---------------------------------------------------------------------------
# masking, matching, batching


@dataclass
class BatchRow:
    """One example: ``PackedBatch``'s per-row fields, before ``collate`` pads them."""

    token_ids: np.ndarray        # (n,) [CLS] first; position i is index i
    mlm_targets: np.ndarray      # (n,) original id at masked slots, -1 elsewhere
    roi_features: np.ndarray     # (m, feat_dim)
    boxes: np.ndarray            # (m, 4) normalized x_min, y_min, x_max, y_max
    detected_labels: np.ndarray  # (m,)
    obj_mask_flags: np.ndarray   # (m,) True = masked
    match_label: bool
    answer_index: int
    is_question: bool


@dataclass
class CrossModalBatch:
    rows: list[BatchRow]


def plain_row(image_id: str, sentence: str, store: FeatureStore, vocab: Vocabulary,
              model: ModelConfig, *, is_question: bool = False,
              answer_index: int = OUT_OF_TABLE) -> BatchRow:
    """A matched row with no word or object masked: the row evaluation,
    fine-tuning and attention dumps feed the model, and the row
    ``BatchMaker.make_row`` masks. The store's arrays are shared, not copied."""
    ids = tokenize(sentence, vocab, model.max_sentence_len)
    feats, boxes, labels = store.get(image_id)
    return BatchRow(ids, np.full(ids.shape, -1, dtype=np.int64), feats, boxes, labels,
                    np.zeros(store.m, dtype=bool), True, answer_index, is_question)


def _sentences_by_image(records) -> dict[str, set[str]]:
    own: dict[str, set[str]] = {}
    for r in records:
        own.setdefault(r.image_id, set()).add(r.sentence)
    return own


def can_mismatch(records) -> bool:
    """Whether each image of ``records`` (two or more) lacks some sentence of
    another, which its mismatched rows can carry."""
    own = _sentences_by_image(records)
    everything = set().union(*own.values())
    return len(own) >= 2 and all(len(s) < len(everything) for s in own.values())


class BatchMaker:
    """Applies the masking and matching policies to corpus records.

    Mismatched rows keep the original image but carry a sentence drawn from
    another image, never one the row's image also has. Only non-special
    tokens are eligible for masking; masked slots resolve 80/10/10 to
    [MASK] / random word / unchanged.
    Object masking only sets flags: ``roi_features`` keep the unmasked
    features, which are the regression target, and the object embedder
    zeroes the flagged ones.
    """

    def __init__(self, records, store: FeatureStore, vocab: Vocabulary,
                 answer_table: AnswerTable, masking: MaskingConfig, model: ModelConfig):
        self.records = list(records)
        self.store = store
        self.vocab = vocab
        self.answer_table = answer_table
        self.masking = masking.validate()
        self.model = model
        self._sentences = _sentences_by_image(self.records)
        if self.masking.mismatch_prob > 0 and not can_mismatch(self.records):
            raise ValueError("mismatch sampling needs at least 2 distinct images, each "
                             "lacking some sentence of the corpus")

    def _draw_replacement(self, image_id: str, rng: np.random.Generator) -> CorpusRecord:
        # a sentence the image lacks always belongs to another image
        own = self._sentences.get(image_id, set())
        while True:
            other = self.records[rng.integers(0, len(self.records))]
            if other.sentence not in own:
                return other

    def make_row(self, record: CorpusRecord, rng: np.random.Generator) -> BatchRow:
        cfg = self.masking
        source, matched = record, True
        if rng.random() < cfg.mismatch_prob:
            source, matched = self._draw_replacement(record.image_id, rng), False

        answer_index = OUT_OF_TABLE
        if matched and source.is_question:
            answer_index = self.answer_table.lookup(source.answer)
        row = plain_row(record.image_id, source.sentence, self.store, self.vocab, self.model,
                        is_question=source.is_question, answer_index=answer_index)
        row.match_label = matched
        ids, targets = row.token_ids, row.mlm_targets
        vocab = self.vocab
        for i in range(len(ids)):
            if ids[i] < vocab.n_special:
                continue
            if rng.random() >= cfg.word_mask_prob:
                continue
            targets[i] = ids[i]
            u = rng.random()
            if u < _MASK_TOKEN_FRAC:
                ids[i] = vocab.mask_id
            elif u < _MASK_TOKEN_FRAC + _RANDOM_TOKEN_FRAC:
                ids[i] = int(rng.integers(vocab.n_special, len(vocab)))
            # else: keep the original token, target still recorded
        row.obj_mask_flags[:] = rng.random(self.store.m) < cfg.object_mask_prob
        return row

    def make_batch(self, records, rng: np.random.Generator) -> CrossModalBatch:
        return CrossModalBatch([self.make_row(r, rng) for r in records])


@dataclass
class PackedBatch:
    """Padded arrays for one batch, ready for the batched forward pass."""

    token_ids: np.ndarray      # (B, n) int64, PAD-padded
    token_mask: np.ndarray     # (B, n) bool, True at real tokens
    mlm_targets: np.ndarray    # (B, n) int64, -1 where not masked
    roi_features: np.ndarray   # (B, m, feat_dim) float32
    boxes: np.ndarray          # (B, m, 4) float32
    detected_labels: np.ndarray  # (B, m) int64
    obj_mask_flags: np.ndarray   # (B, m) bool
    obj_real: np.ndarray       # (B, m) bool, True at real objects
    match_labels: np.ndarray   # (B,) int64, 1 = matched
    answer_indices: np.ndarray  # (B,) int64, OUT_OF_TABLE where inactive
    is_question: np.ndarray    # (B,) bool


def collate(batch: CrossModalBatch, vocab: Vocabulary) -> PackedBatch:
    """Pad the token fields to the longest row and stack the rest, in
    ``PackedBatch``'s dtypes."""
    rows = batch.rows
    lengths = [len(r.token_ids) for r in rows]
    token_ids = np.full((len(rows), max(lengths)), vocab.pad_id, dtype=np.int64)
    mlm_targets = np.full(token_ids.shape, -1, dtype=np.int64)
    for i, (r, k) in enumerate(zip(rows, lengths)):
        token_ids[i, :k] = r.token_ids
        mlm_targets[i, :k] = r.mlm_targets

    def stack(name, dtype):
        return np.array([getattr(r, name) for r in rows], dtype=dtype)

    obj_mask_flags = stack("obj_mask_flags", bool)
    return PackedBatch(
        token_ids=token_ids,
        token_mask=np.arange(token_ids.shape[1]) < np.array(lengths)[:, None],
        mlm_targets=mlm_targets,
        roi_features=stack("roi_features", np.float32),
        boxes=stack("boxes", np.float32),
        detected_labels=stack("detected_labels", np.int64),
        obj_mask_flags=obj_mask_flags,
        obj_real=np.ones_like(obj_mask_flags),
        match_labels=stack("match_label", np.int64),
        answer_indices=stack("answer_index", np.int64),
        is_question=stack("is_question", bool),
    )


# ---------------------------------------------------------------------------
# synthetic corpus


DEFAULT_LABELS = (
    "apple", "ball", "bird", "book", "box", "car", "cat", "chair",
    "cup", "dog", "door", "fish", "house", "lamp", "shoe", "tree",
)

_NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve",
)

_LABELS_PER_IMAGE = 2      # size of each image's label pool
_MIN_SEPARATION = 1.0      # least distance between two label centroids
_FEATURE_NOISE_STD = 0.2   # std of an object's features around its label centroid


def _count_word(count: int) -> str:
    """A how-many answer: the number word up to twelve, digits above."""
    return _NUMBER_WORDS[count] if count < len(_NUMBER_WORDS) else str(count)


def _dev_count(n: int, dev_fraction: float) -> int:
    """How many of the last of ``n`` items form the dev split."""
    if not 0.0 <= dev_fraction <= 1.0:
        raise ValueError(f"dev_fraction must be in [0, 1], got {dev_fraction}")
    return int(math.ceil(n * dev_fraction))


def _label_centroids(rng: np.random.Generator, n_labels: int, feat_dim: int) -> np.ndarray:
    """Unit-norm centroids with pairwise separation >= ``_MIN_SEPARATION``.

    When n_labels <= feat_dim a random orthonormal frame is used (pairwise
    distance sqrt(2)); otherwise rejection sampling over random unit vectors.
    """
    if n_labels <= feat_dim:
        a = rng.normal(size=(feat_dim, feat_dim))
        q, _ = np.linalg.qr(a)
        return np.ascontiguousarray(q[:n_labels])
    for _ in range(10000):
        c = rng.normal(size=(n_labels, feat_dim))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        d = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        if d.min() >= _MIN_SEPARATION:
            return c
    raise ValueError(
        f"could not place {n_labels} unit centroids at separation {_MIN_SEPARATION}"
    )


def _random_boxes(rng: np.random.Generator, m: int) -> np.ndarray:
    x0 = rng.uniform(0.0, 0.7, size=m)
    y0 = rng.uniform(0.0, 0.7, size=m)
    w = rng.uniform(0.1, 0.3, size=m)
    h = rng.uniform(0.1, 0.3, size=m)
    boxes = np.stack([x0, y0, np.minimum(x0 + w, 1.0), np.minimum(y0 + h, 1.0)], axis=1)
    return boxes.astype(np.float32)


def generate_synthetic_corpus(
    seed: int,
    n_images: int,
    label_vocab: tuple[str, ...] = DEFAULT_LABELS,
    *,
    feat_dim: int = 32,
    objects_per_image: int = 8,
    captions_per_image: int = 2,
    questions_per_image: int = 3,
    dev_fraction: float = 0.1,
) -> tuple[list[CorpusRecord], FeatureStore]:
    """Generate aligned image-and-sentence pairs with learnable structure.

    Every image holds ``objects_per_image`` objects drawn from a per-image
    pool of two distinct labels; object features sit on per-label
    Gaussian centroids so labels are linearly decodable from features.
    Captions cycle per image through two transcriptions, which list the
    object labels left to right (every masked slot is answerable only from
    the image), and "a {a} next to a {b}" for two horizontally adjacent
    objects. Questions ask for the label left/right of a named object or
    for a label count, so matching, masked-label classification and QA are
    all learnable from the features and boxes.
    """
    if len(label_vocab) < _LABELS_PER_IMAGE:
        raise ValueError(f"label_vocab needs at least {_LABELS_PER_IMAGE} labels")
    if objects_per_image < _LABELS_PER_IMAGE:
        raise ValueError(f"objects_per_image must be >= {_LABELS_PER_IMAGE} (the size of "
                         f"each image's label pool), got {objects_per_image}")
    n_dev = _dev_count(n_images, dev_fraction)
    rng = np.random.default_rng(seed)
    n_labels = len(label_vocab)
    centroids = _label_centroids(rng, n_labels, feat_dim)

    m = objects_per_image
    store = FeatureStore(m, feat_dim)
    records: list[CorpusRecord] = []

    for i in range(n_images):
        image_id = f"synth-{i:06d}"
        split = "dev" if i >= n_images - n_dev else "train"
        pool = rng.choice(n_labels, size=_LABELS_PER_IMAGE, replace=False)
        labels = np.empty(m, dtype=np.int32)
        labels[:_LABELS_PER_IMAGE] = pool          # every pool label appears
        labels[_LABELS_PER_IMAGE:] = rng.choice(pool, size=m - _LABELS_PER_IMAGE)
        feats = centroids[labels] + rng.normal(0.0, _FEATURE_NOISE_STD, size=(m, feat_dim))
        boxes = _random_boxes(rng, m)
        store.add(image_id, feats.astype(np.float32), boxes, labels)

        pool_names = [label_vocab[p] for p in pool]
        centers = (boxes[:, 0] + boxes[:, 2]) / 2.0
        order = np.argsort(centers)
        left_label = label_vocab[labels[order[0]]]
        right_label = label_vocab[labels[order[-1]]]

        for c in range(captions_per_image):
            if c % 3 < 2:
                sentence = " ".join(label_vocab[labels[j]] for j in order)
            else:
                at = int(rng.integers(0, m - 1))
                sentence = (f"a {label_vocab[labels[order[at]]]} next to "
                            f"a {label_vocab[labels[order[at + 1]]]}")
            records.append(CorpusRecord(image_id, sentence, False, None, split))

        for _ in range(questions_per_image):
            kind = rng.integers(0, 3)
            if kind == 0:
                records.append(CorpusRecord(
                    image_id, f"what is left of the {right_label} ?", True, left_label, split))
            elif kind == 1:
                records.append(CorpusRecord(
                    image_id, f"what is right of the {left_label} ?", True, right_label, split))
            else:
                target = pool_names[rng.integers(0, len(pool_names))]
                count = int((labels == label_vocab.index(target)).sum())
                records.append(CorpusRecord(
                    image_id, f"how many {target} are in the picture ?", True,
                    _count_word(count), split))

    return records, store


def corpus_stats(records) -> dict:
    """Counts of images, captions, questions and total pairs per split."""
    stats: dict[str, dict] = {}
    for split in ("train", "dev", "all"):
        rows = records if split == "all" else [r for r in records if r.split == split]
        stats[split] = {
            "images": len({r.image_id for r in rows}),
            "captions": sum(1 for r in rows if not r.is_question),
            "questions": sum(1 for r in rows if r.is_question),
            "pairs": len(rows),
        }
    return stats


def format_stats(stats: dict) -> str:
    header = f"{'split':8} {'images':>8} {'captions':>10} {'questions':>10} {'pairs':>8}"
    lines = [header, "-" * len(header)]
    for split in ("train", "dev", "all"):
        row = stats[split]
        lines.append(
            f"{split:8} {row['images']:>8} {row['captions']:>10} {row['questions']:>10} {row['pairs']:>8}"
        )
    return "\n".join(lines)


def generate_pairwise_corpus(
    store: FeatureStore,
    label_vocab: tuple[str, ...],
    n_pairs: int,
    seed: int,
    dev_fraction: float = 0.1,
) -> list[PairRecord]:
    """Two-image statements: label true iff each named label is in its image."""
    ids = store.image_ids
    if len(ids) < 2:
        raise ValueError("pairwise corpus needs at least 2 images")
    n_dev = _dev_count(n_pairs, dev_fraction)
    rng = np.random.default_rng(seed)
    n_labels = len(label_vocab)
    pairs: list[PairRecord] = []
    for i in range(n_pairs):
        i0, i1 = rng.choice(len(ids), size=2, replace=False)
        id0, id1 = ids[i0], ids[i1]
        present0 = {int(l) for l in store.get(id0)[2]}
        present1 = {int(l) for l in store.get(id1)[2]}
        positive = bool(rng.random() < 0.5)
        if positive:
            a = int(rng.choice(sorted(present0)))
            b = int(rng.choice(sorted(present1)))
        else:
            absent0 = sorted(set(range(n_labels)) - present0)
            absent1 = sorted(set(range(n_labels)) - present1)
            if not absent0 and not absent1:
                raise ValueError("cannot build a negative pair: images cover all labels")
            corrupt_left = absent0 and (not absent1 or rng.random() < 0.5)
            if corrupt_left:
                a = int(rng.choice(absent0))
                b = int(rng.choice(sorted(present1)))
            else:
                a = int(rng.choice(sorted(present0)))
                b = int(rng.choice(absent1))
        sentence = (
            f"the left picture has a {label_vocab[a]} and the right picture has a {label_vocab[b]}"
        )
        split = "dev" if i >= n_pairs - n_dev else "train"
        pairs.append(PairRecord(id0, id1, sentence, positive, split))
    return pairs
