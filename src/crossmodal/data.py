"""Corpus formats, tokenizer, masking and matching policies, the answer
table, synthetic corpus generation, and corpus statistics.

On-disk formats (documented byte-exact in docs/formats.md):
  - corpus: one JSON record per line with fields
    image_id / sentence / is_question / answer / split
  - feature store: little-endian binary, fixed header then per-image blocks
  - pair corpus: one JSON record per line with fields
    image_id_0 / image_id_1 / sentence / label / split
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import MaskingConfig, ModelConfig

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)

OUT_OF_TABLE = -1

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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"tokens": self.tokens[self.n_special:]}, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(data["tokens"])


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
        if self.split not in ("train", "dev"):
            raise ValueError(f"unknown split tag {self.split!r}")
        return self


def save_corpus(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({
                "image_id": r.image_id,
                "sentence": r.sentence,
                "is_question": r.is_question,
                "answer": r.answer,
                "split": r.split,
            }))
            fh.write("\n")


def load_corpus(path) -> list[CorpusRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            records.append(CorpusRecord(
                image_id=d["image_id"],
                sentence=d["sentence"],
                is_question=bool(d["is_question"]),
                answer=d.get("answer"),
                split=d.get("split", "train"),
            ).validate())
    return records


@dataclass
class PairRecord:
    """Two-image statement for pairwise fine-tuning."""

    image_id_0: str
    image_id_1: str
    sentence: str
    label: bool
    split: str = "train"


def save_pairs(pairs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps({
                "image_id_0": p.image_id_0,
                "image_id_1": p.image_id_1,
                "sentence": p.sentence,
                "label": bool(p.label),
                "split": p.split,
            }))
            fh.write("\n")


def load_pairs(path) -> list[PairRecord]:
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            pairs.append(PairRecord(
                d["image_id_0"], d["image_id_1"], d["sentence"],
                bool(d["label"]), d.get("split", "train"),
            ))
    return pairs


@dataclass
class TokenSequence:
    """Word ids for one sentence; position i is implied by index i.

    Position 0 is always [CLS]. ``mlm_targets`` holds the original id at
    masked slots and -1 elsewhere.
    """

    token_ids: np.ndarray
    mlm_targets: np.ndarray | None = None

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        if self.mlm_targets is not None:
            self.mlm_targets = np.asarray(self.mlm_targets, dtype=np.int64)

    @property
    def n(self) -> int:
        return int(self.token_ids.shape[0])


@dataclass
class ObjectSet:
    """Detected-object inputs for one image: features, boxes, labels, masking."""

    roi_features: np.ndarray      # (m, feat_dim) float32
    boxes: np.ndarray             # (m, 4) normalized x_min, y_min, x_max, y_max
    detected_labels: np.ndarray   # (m,) int
    mask_flags: np.ndarray | None = None          # (m,) bool, True = feature zeroed
    regression_targets: np.ndarray | None = None  # original features for masked slots

    def __post_init__(self):
        self.roi_features = np.asarray(self.roi_features, dtype=np.float32)
        self.boxes = np.asarray(self.boxes, dtype=np.float32)
        self.detected_labels = np.asarray(self.detected_labels, dtype=np.int64)
        if self.mask_flags is None:
            self.mask_flags = np.zeros(self.m, dtype=bool)
        else:
            self.mask_flags = np.asarray(self.mask_flags, dtype=bool)

    @property
    def m(self) -> int:
        return int(self.roi_features.shape[0])

    def validate(self) -> "ObjectSet":
        m = self.m
        if self.boxes.shape != (m, 4):
            raise ValueError(f"boxes shape {self.boxes.shape} does not match {m} objects")
        if self.boxes.min() < 0.0 or self.boxes.max() > 1.0:
            raise ValueError("box coordinates must lie in [0, 1]")
        if (self.boxes[:, 0] > self.boxes[:, 2]).any() or (self.boxes[:, 1] > self.boxes[:, 3]).any():
            raise ValueError("boxes must satisfy x_min <= x_max and y_min <= y_max")
        if self.mask_flags.any() and self.regression_targets is None:
            raise ValueError("masked objects need regression targets")
        return self


def tokenize(sentence: str, vocab: Vocabulary, max_len: int, use_sep: bool = True) -> TokenSequence:
    """Tokenize into [CLS] words... [SEP], truncated to ``max_len`` ids."""
    reserved = 2 if use_sep else 1
    if max_len < reserved:
        raise ValueError(f"max_len must be >= {reserved} with use_sep={use_sep}, got {max_len}")
    words = split_words(sentence)
    budget = max_len - reserved
    ids = [vocab.cls_id] + [vocab.id_of(w) for w in words[:budget]]
    if use_sep:
        ids.append(vocab.sep_id)
    return TokenSequence(np.array(ids, dtype=np.int64))


# ---------------------------------------------------------------------------
# feature store (binary, little-endian)

_STORE_MAGIC = b"XMFS"
_STORE_VERSION = 1


class FeatureStoreError(ValueError):
    """A feature store file that is not one, or is truncated or corrupt."""


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise FeatureStoreError("unexpected end of feature store file")
    return raw


class FeatureStore:
    """Per-image object features, boxes and detected labels, fixed m per store."""

    def __init__(self, m: int, feat_dim: int):
        self.m = int(m)
        self.feat_dim = int(feat_dim)
        self._images: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._images)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._images

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

    def num_labels(self) -> int:
        top = 0
        for _, _, labels in self._images.values():
            if labels.size:
                top = max(top, int(labels.max()) + 1)
        return top

    def save(self, path) -> None:
        with open(path, "wb") as fh:
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
            magic = fh.read(4)
            if magic != _STORE_MAGIC:
                raise FeatureStoreError(f"not a feature store file (magic {magic!r})")
            version, m, feat_dim, count = struct.unpack("<IIII", _read_exact(fh, 16))
            if version != _STORE_VERSION:
                raise FeatureStoreError(f"unsupported feature store version {version}")
            store = cls(m, feat_dim)
            for _ in range(count):
                (id_len,) = struct.unpack("<I", _read_exact(fh, 4))
                try:
                    image_id = _read_exact(fh, id_len).decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FeatureStoreError(f"corrupt image id: {exc}") from exc
                feats = np.frombuffer(_read_exact(fh, 4 * m * feat_dim), dtype="<f4")
                boxes = np.frombuffer(_read_exact(fh, 4 * m * 4), dtype="<f4")
                labels = np.frombuffer(_read_exact(fh, 4 * m), dtype="<i4")
                store.add(image_id, feats.reshape(m, feat_dim), boxes.reshape(m, 4),
                          labels.astype(np.int32))
        return store


# ---------------------------------------------------------------------------
# masking, matching, batching


@dataclass
class BatchRow:
    tokens: TokenSequence
    objects: ObjectSet
    match_label: bool
    answer_index: int
    is_question: bool


@dataclass
class CrossModalBatch:
    rows: list[BatchRow]

    def __len__(self) -> int:
        return len(self.rows)


class BatchMaker:
    """Applies the masking and matching policies to corpus records.

    Mismatched rows keep the original image but carry a sentence drawn from
    a different image. Only non-special tokens are eligible for masking;
    masked slots resolve 80/10/10 to [MASK] / random word / unchanged.
    Object masking records the original feature as a regression target; the
    feature itself is zeroed later, inside the object embedder.
    """

    def __init__(self, records, store: FeatureStore, vocab: Vocabulary,
                 answer_table: AnswerTable, masking: MaskingConfig, model: ModelConfig):
        self.records = list(records)
        self.store = store
        self.vocab = vocab
        self.answer_table = answer_table
        self.masking = masking.validate()
        self.model = model
        distinct_images = {r.image_id for r in self.records}
        if self.masking.mismatch_prob > 0 and len(distinct_images) < 2:
            raise ValueError(
                "mismatch sampling needs at least 2 distinct images in the corpus"
            )

    def _draw_replacement(self, image_id: str, rng: np.random.Generator) -> CorpusRecord:
        while True:
            other = self.records[rng.integers(0, len(self.records))]
            if other.image_id != image_id:
                return other

    def make_row(self, record: CorpusRecord, rng: np.random.Generator) -> BatchRow:
        cfg = self.masking
        matched = True
        sentence, is_question, answer = record.sentence, record.is_question, record.answer
        if rng.random() < cfg.mismatch_prob:
            other = self._draw_replacement(record.image_id, rng)
            sentence, is_question, answer = other.sentence, other.is_question, other.answer
            matched = False

        seq = tokenize(sentence, self.vocab, self.model.max_sentence_len, self.model.use_sep)
        ids = seq.token_ids.copy()
        targets = np.full(ids.shape, -1, dtype=np.int64)
        vocab = self.vocab
        for i in range(len(ids)):
            if ids[i] < vocab.n_special:
                continue
            if rng.random() >= cfg.word_mask_prob:
                continue
            targets[i] = ids[i]
            u = rng.random()
            if u < cfg.mask_token_frac:
                ids[i] = vocab.mask_id
            elif u < cfg.mask_token_frac + cfg.random_token_frac:
                ids[i] = int(rng.integers(vocab.n_special, len(vocab)))
            # else: keep the original token, target still recorded
        tokens = TokenSequence(ids, targets)

        feats, boxes, labels = self.store.get(record.image_id)
        mask_flags = rng.random(self.store.m) < cfg.object_mask_prob
        objects = ObjectSet(
            roi_features=feats,
            boxes=boxes,
            detected_labels=labels.astype(np.int64),
            mask_flags=mask_flags,
            regression_targets=feats,
        )

        answer_index = OUT_OF_TABLE
        if matched and is_question:
            answer_index = self.answer_table.lookup(answer)
        return BatchRow(tokens, objects, matched, answer_index, is_question)

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
    regression_targets: np.ndarray  # (B, m, feat_dim) float32
    obj_real: np.ndarray       # (B, m) bool, True at real objects
    match_labels: np.ndarray   # (B,) int64, 1 = matched
    answer_indices: np.ndarray  # (B,) int64, OUT_OF_TABLE where inactive
    is_question: np.ndarray    # (B,) bool

    @property
    def size(self) -> int:
        return int(self.token_ids.shape[0])


def collate(batch: CrossModalBatch, vocab: Vocabulary) -> PackedBatch:
    rows = batch.rows
    b = len(rows)
    n = max(r.tokens.n for r in rows)
    m = rows[0].objects.m
    fd = rows[0].objects.roi_features.shape[1]

    token_ids = np.full((b, n), vocab.pad_id, dtype=np.int64)
    token_mask = np.zeros((b, n), dtype=bool)
    mlm_targets = np.full((b, n), -1, dtype=np.int64)
    feats = np.zeros((b, m, fd), dtype=np.float32)
    boxes = np.zeros((b, m, 4), dtype=np.float32)
    labels = np.zeros((b, m), dtype=np.int64)
    mask_flags = np.zeros((b, m), dtype=bool)
    reg_targets = np.zeros((b, m, fd), dtype=np.float32)

    for i, r in enumerate(rows):
        k = r.tokens.n
        token_ids[i, :k] = r.tokens.token_ids
        token_mask[i, :k] = True
        if r.tokens.mlm_targets is not None:
            mlm_targets[i, :k] = r.tokens.mlm_targets
        feats[i] = r.objects.roi_features
        boxes[i] = r.objects.boxes
        labels[i] = r.objects.detected_labels
        mask_flags[i] = r.objects.mask_flags
        if r.objects.regression_targets is not None:
            reg_targets[i] = r.objects.regression_targets

    return PackedBatch(
        token_ids=token_ids,
        token_mask=token_mask,
        mlm_targets=mlm_targets,
        roi_features=feats,
        boxes=boxes,
        detected_labels=labels,
        obj_mask_flags=mask_flags,
        regression_targets=reg_targets,
        obj_real=np.ones((b, m), dtype=bool),
        match_labels=np.array([int(r.match_label) for r in rows], dtype=np.int64),
        answer_indices=np.array([r.answer_index for r in rows], dtype=np.int64),
        is_question=np.array([r.is_question for r in rows], dtype=bool),
    )


def validate_batch(batch: CrossModalBatch, vocab: Vocabulary, model: ModelConfig) -> None:
    """Check the structural invariants of every row; raises on violation."""
    for i, row in enumerate(batch.rows):
        seq = row.tokens
        if seq.n < 1 or seq.token_ids[0] != vocab.cls_id:
            raise ValueError(f"row {i}: position 0 must be [CLS]")
        if seq.n > model.max_sentence_len:
            raise ValueError(f"row {i}: sentence length {seq.n} exceeds {model.max_sentence_len}")
        if seq.token_ids.min() < 0 or seq.token_ids.max() >= len(vocab):
            raise ValueError(f"row {i}: token id out of vocabulary")
        if seq.mlm_targets is None or seq.mlm_targets.shape != seq.token_ids.shape:
            raise ValueError(f"row {i}: mlm targets missing or misshapen")
        obj = row.objects
        if obj.m != model.objects_per_image:
            raise ValueError(f"row {i}: {obj.m} objects, configured {model.objects_per_image}")
        obj.validate()
        if obj.mask_flags.any():
            if obj.regression_targets is None:
                raise ValueError(f"row {i}: masked objects lack regression targets")
        if row.answer_index < OUT_OF_TABLE:
            raise ValueError(f"row {i}: answer index {row.answer_index} is invalid")
        if row.answer_index != OUT_OF_TABLE and not (row.match_label and row.is_question):
            raise ValueError(f"row {i}: answer index set on a gated row")


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class TemplateSet:
    """Caption and question templates for the synthetic generator.

    Caption kinds cycle per image: "transcription" lists the object labels
    left to right (dense grounding signal: every masked slot is answerable
    only from the image), "adjacent_pair" renders the pair template for two
    horizontally adjacent objects. Question kinds are built in: left-of,
    right-of, how-many.
    """

    caption_kinds: tuple[str, ...] = ("transcription", "transcription", "adjacent_pair")
    adjacent_pair: str = "a {a} next to a {b}"
    number_words: tuple[str, ...] = (
        "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
        "nine", "ten", "eleven", "twelve",
    )


DEFAULT_LABELS = (
    "apple", "ball", "bird", "book", "box", "car", "cat", "chair",
    "cup", "dog", "door", "fish", "house", "lamp", "shoe", "tree",
)


def _label_centroids(rng: np.random.Generator, n_labels: int, feat_dim: int,
                     min_separation: float) -> np.ndarray:
    """Unit-norm centroids with pairwise separation >= ``min_separation``.

    When n_labels <= feat_dim a random orthonormal frame is used (pairwise
    distance sqrt(2)); otherwise rejection sampling over random unit vectors.
    """
    if min_separation <= math.sqrt(2.0) and n_labels <= feat_dim:
        a = rng.normal(size=(feat_dim, feat_dim))
        q, _ = np.linalg.qr(a)
        return np.ascontiguousarray(q[:n_labels])
    for _ in range(10000):
        c = rng.normal(size=(n_labels, feat_dim))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        d = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        if d.min() >= min_separation:
            return c
    raise ValueError(
        f"could not place {n_labels} unit centroids at separation {min_separation}"
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
    templates: TemplateSet | None = None,
    *,
    feat_dim: int = 32,
    objects_per_image: int = 8,
    captions_per_image: int = 2,
    questions_per_image: int = 3,
    noise_std: float = 0.2,
    min_separation: float = 1.0,
    labels_per_image: int = 2,
    dev_fraction: float = 0.1,
) -> tuple[list[CorpusRecord], FeatureStore]:
    """Generate aligned image-and-sentence pairs with learnable structure.

    Every image holds ``objects_per_image`` objects drawn from a small
    per-image pool of distinct labels; object features sit on per-label
    Gaussian centroids so labels are linearly decodable from features.
    Captions transcribe or name the visible objects; questions ask for the
    label left/right of a named object or for a label count, so matching,
    masked-label classification and QA are all learnable from the features
    and boxes.
    """
    if not label_vocab:
        raise ValueError("label_vocab must not be empty")
    if labels_per_image < 2 or labels_per_image > len(label_vocab):
        raise ValueError("labels_per_image must be in [2, len(label_vocab)]")
    templates = templates or TemplateSet()
    rng = np.random.default_rng(seed)
    n_labels = len(label_vocab)
    centroids = _label_centroids(rng, n_labels, feat_dim, min_separation)

    m = objects_per_image
    store = FeatureStore(m, feat_dim)
    records: list[CorpusRecord] = []
    n_dev = int(math.ceil(n_images * dev_fraction))

    for i in range(n_images):
        image_id = f"synth-{i:06d}"
        split = "dev" if i >= n_images - n_dev else "train"
        pool = rng.choice(n_labels, size=labels_per_image, replace=False)
        labels = np.empty(m, dtype=np.int32)
        labels[:labels_per_image] = pool          # every pool label appears
        labels[labels_per_image:] = rng.choice(pool, size=m - labels_per_image)
        feats = centroids[labels] + rng.normal(0.0, noise_std, size=(m, feat_dim))
        boxes = _random_boxes(rng, m)
        store.add(image_id, feats.astype(np.float32), boxes, labels)

        pool_names = [label_vocab[p] for p in pool]
        centers = (boxes[:, 0] + boxes[:, 2]) / 2.0
        order = np.argsort(centers)
        left_label = label_vocab[labels[order[0]]]
        right_label = label_vocab[labels[order[-1]]]

        for c in range(captions_per_image):
            kind = templates.caption_kinds[c % len(templates.caption_kinds)]
            if kind == "transcription":
                sentence = " ".join(label_vocab[labels[j]] for j in order)
            elif kind == "adjacent_pair":
                at = int(rng.integers(0, m - 1))
                sentence = templates.adjacent_pair.format(
                    a=label_vocab[labels[order[at]]],
                    b=label_vocab[labels[order[at + 1]]])
            else:
                raise ValueError(f"unknown caption kind {kind!r}")
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
                    templates.number_words[count], split))

    return records, store


def corpus_stats(records) -> dict:
    """Counts of images, captions, questions and total pairs per split."""
    stats: dict[str, dict] = {}
    for split in ("train", "dev"):
        rows = [r for r in records if r.split == split]
        stats[split] = {
            "images": len({r.image_id for r in rows}),
            "captions": sum(1 for r in rows if not r.is_question),
            "questions": sum(1 for r in rows if r.is_question),
            "pairs": len(rows),
        }
    stats["all"] = {
        "images": len({r.image_id for r in records}),
        "captions": sum(1 for r in records if not r.is_question),
        "questions": sum(1 for r in records if r.is_question),
        "pairs": len(records),
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
    rng = np.random.default_rng(seed)
    n_labels = len(label_vocab)
    pairs: list[PairRecord] = []
    n_dev = int(math.ceil(n_pairs * dev_fraction))
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
