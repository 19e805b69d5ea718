"""Training loops, evaluation, attention dumps, and data-directory plumbing.

Pre-training and both fine-tuning tasks are runs of one loop, ``_fit``,
which owns everything a run shares: the output directory, ``metrics.jsonl``,
the per-epoch and final checkpoints, and the ``RunResult``. The run's Adam
state, fresh or resumed, is the one record of its schedule and progress:
``_fit`` runs from its step to its total steps. Each epoch draws one
shuffle of the rows; each step zeroes the gradients, records the caller's
step loss on a tape, back-propagates, clips, sets the scheduled learning
rate, takes an Adam step and appends one metrics line. The callers keep
what differs: the rows, the step loss, the head set-up, the checkpoint's
stored ``extra``, the resume checks and the dev score. Pre-training's step
loss enables QA from ``qa_start_fraction`` of the epochs on. Its checkpoints
carry optimizer and rng state, so a resumed run reproduces the
uninterrupted one exactly.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .atomic import atomic_open
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ModelConfig, RunConfig
from .data import (
    OUT_OF_TABLE,
    AnswerTable,
    BatchMaker,
    CorpusRecord,
    CrossModalBatch,
    FeatureStore,
    FeatureStoreError,
    MaskingConfig,
    PackedBatch,
    PairRecord,
    Vocabulary,
    build_answer_table,
    can_mismatch,
    collate,
    load_corpus,
    load_pairs,
    load_string_list,
    plain_row,
)
from .encoders import (
    Runtime,
    cross_stack,
    forward_batch,
    language_stack,
    object_stack,
)
from .heads import (
    head_logits,
    masked_object_rows,
    pairwise_bce,
    pairwise_forward,
    pairwise_logit,
    pretrain_losses,
    qa_loss,
)
from .optim import OptimizerState, adam_step, clip_gradients, lr_at_step
from .params import PAIRWISE_HEAD, PRETRAIN_HEADS, init_head_params, init_params
from .tensor import Tape, Tensor, backward, zero_grads

CORPUS_FILE = "corpus.jsonl"
FEATURES_FILE = "features.bin"
VOCAB_FILE = "vocab.json"
LABELS_FILE = "labels.json"
PAIRS_FILE = "pairs.jsonl"


@dataclass
class DataBundle:
    records: list[CorpusRecord]
    store: FeatureStore
    vocab: Vocabulary
    label_names: list[str]
    pairs: list[PairRecord] | None = None

    def split(self, tag: str) -> list[CorpusRecord]:
        return [r for r in self.records if r.split == tag]


def load_data_dir(path) -> DataBundle:
    """Load the gen-data output directory, whose stored label ids must index ``labels.json``."""
    records = load_corpus(os.path.join(path, CORPUS_FILE))
    store = FeatureStore.load(os.path.join(path, FEATURES_FILE))
    vocab = Vocabulary.load(os.path.join(path, VOCAB_FILE))
    label_names = load_string_list(os.path.join(path, LABELS_FILE), "labels")
    for image_id in store.image_ids:
        labels = store.get(image_id)[2]
        outside = labels[(labels < 0) | (labels >= len(label_names))]
        if outside.size:
            raise FeatureStoreError(
                f"{FEATURES_FILE}: image {image_id!r} has detected label id {outside[0]}, "
                f"outside [0, {len(label_names)}) of {LABELS_FILE}")
    pairs_path = os.path.join(path, PAIRS_FILE)
    pairs = load_pairs(pairs_path) if os.path.exists(pairs_path) else None
    return DataBundle(records, store, vocab, label_names, pairs)


def _check_data(cfg: ModelConfig, bundle: DataBundle) -> None:
    """Reject a data directory whose vocabulary, label names, objects per
    image or feature width differ from the model's."""
    for name, found in (("vocab_size", len(bundle.vocab)),
                        ("num_labels", len(bundle.label_names)),
                        ("objects_per_image", bundle.store.m),
                        ("feat_dim", bundle.store.feat_dim)):
        if found != getattr(cfg, name):
            raise ValueError(f"data directory has {name} {found}, "
                             f"the model has {getattr(cfg, name)}")


def resolve_model_config(model: ModelConfig, bundle: DataBundle,
                         answer_coverage: float) -> tuple[ModelConfig, AnswerTable]:
    """Fill the data-derived config fields and check corpus compatibility."""
    table = build_answer_table(bundle.split("train"), answer_coverage)
    cfg = replace(
        model,
        vocab_size=len(bundle.vocab),
        num_labels=len(bundle.label_names),
        num_answers=len(table),
    ).validate()
    _check_data(cfg, bundle)
    return cfg, table


def _rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The init generator and the training generator of a run with ``seed``."""
    init_seed, train_seed = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(init_seed), np.random.default_rng(train_seed)


def make_initial_checkpoint(run_cfg: RunConfig, bundle: DataBundle, seed: int) -> Checkpoint:
    """Randomly initialized checkpoint with data-derived sizes resolved.

    Uses the same seed derivation as run_pretraining, so this equals the
    state a pre-training run with the same seed starts from.
    """
    cfg, table = resolve_model_config(run_cfg.model, bundle, run_cfg.schedule.answer_coverage)
    init_rng, _ = _rngs(seed)
    params = init_params(cfg, init_rng, heads=(PRETRAIN_HEADS,))
    return Checkpoint(config=cfg, heads=(PRETRAIN_HEADS,), params=params,
                      extra={"answers": table.answers, "epoch": 0})


def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def _clone_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Copy parameters so in-place optimizer updates cannot leak to the caller."""
    return {name: Tensor(p.data.copy(), requires_grad=True) for name, p in params.items()}


@dataclass
class RunResult:
    """What a run wrote, its metrics lines, and the caller's dev score."""

    final_checkpoint: str
    metrics_path: str
    history: list[dict]
    dev_accuracy: float | None = None


def _step_count(n_items: int, batch_size: int, epochs: int) -> int:
    """Optimizer steps in ``epochs`` epochs over ``n_items`` rows at ``batch_size``."""
    return math.ceil(n_items / batch_size) * epochs


def _fit(items: list, step_loss, params: dict[str, Tensor], rng: np.random.Generator,
         out_dir, checkpoint, opt: OptimizerState, *, batch_size: int,
         clip_norm: float | None, log=None, save_epochs: bool = False) -> RunResult:
    """Train ``params`` in place over ``items`` as one run written to ``out_dir``.

    ``opt`` is the run's Adam state: a fresh one (``OptimizerState.init``)
    or a resumed one. The run takes steps ``opt.step`` to ``opt.total_steps``,
    each at ``lr_at_step`` of ``opt``'s schedule; both must be whole epochs,
    or it raises ``ValueError`` before writing anything. When ``opt.step > 0`` it appends to the metrics file,
    after dropping the lines a crashed run wrote from that step on. Each
    epoch draws one permutation of ``items`` from ``rng``. Each step calls
    ``step_loss(chunk)`` under a tape; it returns the scalar loss and the
    loss fields of the step's line in the metrics file, which also carries
    the global gradient norm before clipping.

    ``checkpoint(epoch)`` builds the run's ``Checkpoint`` after ``epoch``
    epochs; ``_fit`` adds the Adam and rng state to it. With ``save_epochs``
    it is saved as ``checkpoint-epoch-N`` after each epoch, once the
    epoch's metrics lines are flushed; it is always saved as
    ``checkpoint-final`` after the last epoch.
    """
    steps_per_epoch = _step_count(len(items), batch_size, 1)
    epochs, rest = divmod(opt.total_steps, steps_per_epoch)
    if rest or opt.step % steps_per_epoch:
        raise ValueError(f"the Adam state's step {opt.step} of {opt.total_steps} is not a whole "
                         f"epoch of {steps_per_epoch} steps; resume under the same batch size")
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.jsonl")

    def save(name: str, epoch: int) -> str:
        path = os.path.join(out_dir, name)
        save_checkpoint(path, replace(checkpoint(epoch), opt_state=opt,
                                      rng_state=rng.bit_generator.state))
        return path

    history: list[dict] = []
    t0 = time.time()
    if opt.step > 0:
        _drop_metrics_from(metrics_path, opt.step)
    with open(metrics_path, "a" if opt.step > 0 else "w", encoding="utf-8") as metrics:
        for epoch in range(opt.step // steps_per_epoch, epochs):
            order = rng.permutation(len(items))
            for i in range(steps_per_epoch):
                step = opt.step
                chunk = [items[j] for j in order[i * batch_size:(i + 1) * batch_size]]
                zero_grads(params)
                with Tape():
                    loss, fields = step_loss(chunk)
                    backward(loss)
                grad_norm = clip_gradients(params, clip_norm)
                lr = lr_at_step(step, opt.peak_lr, opt.warmup_fraction, opt.total_steps)
                adam_step(params, {name: p.grad for name, p in params.items()}, opt, lr)

                line = {"step": step, "lr": lr, **fields, "grad_norm": grad_norm,
                        "wall_time": time.time() - t0}
                metrics.write(json.dumps(line) + "\n")
                history.append(line)
                if log is not None and (step % 50 == 0 or step == opt.total_steps - 1):
                    log(f"step {step}/{opt.total_steps} lr={lr:.2e} loss={loss.item():.4f}")
            if save_epochs:
                metrics.flush()
                save(f"checkpoint-epoch-{epoch + 1}.ckpt", epoch + 1)
    return RunResult(save("checkpoint-final.ckpt", epochs), metrics_path, history)


def _drop_metrics_from(path, first_step: int) -> None:
    """Rewrite the metrics file without its lines from ``first_step`` on.

    A run that crashed after its last checkpoint left those steps, and maybe
    a torn last line, which the resumed run writes again.
    """
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        kept = [line for line in fh
                if line.endswith("\n") and json.loads(line)["step"] < first_step]
    with atomic_open(path) as fh:
        fh.writelines(kept)


def run_pretraining(bundle: DataBundle, run_cfg: RunConfig, seed: int, out_dir,
                    resume: str | None = None, log=None) -> RunResult:
    """Pre-training over the train split, with the QA loss zero before the
    first step of epoch ``round(epochs * qa_start_fraction)``.

    All randomness (masking, mismatching, shuffling, dropout) is drawn from
    one generator whose state is checkpointed, so a resumed run reproduces
    the uninterrupted loss sequence exactly.
    """
    run_cfg.validate()
    sched = run_cfg.schedule
    train_records = bundle.split("train")
    if not train_records:
        raise ValueError("corpus has no train records")
    cfg, table = resolve_model_config(run_cfg.model, bundle, sched.answer_coverage)
    total_steps = _step_count(len(train_records), sched.batch_size, sched.epochs)

    # what a resumed run must share with its checkpoint beyond the optimizer's schedule
    run_extra = {"qa_start_fraction": sched.qa_start_fraction,
                 "clip_norm": sched.clip_norm, "gate_object_tasks": sched.gate_object_tasks,
                 **asdict(run_cfg.masking)}
    if resume is not None:
        # checked against its own stored config, then compared with cfg field
        # by field below, so another answer table is named rather than the
        # head tensor whose shape it changes
        ckpt = load_checkpoint(resume)
        params = ckpt.params
        opt = ckpt.opt_state
        if opt is None:
            raise ValueError("resume checkpoint has no optimizer state")
        if "epoch" not in ckpt.extra or "finetuned" in ckpt.extra:
            raise ValueError(
                f"{resume} is not a pre-training checkpoint (no epoch, or fine-tuned); "
                "resume from a checkpoint-epoch-N or checkpoint-final file of pretrain")
        for name, stored, given in (
                ("peak_lr", opt.peak_lr, sched.peak_lr),
                ("warmup_fraction", opt.warmup_fraction, sched.warmup_fraction),
                ("total_steps", opt.total_steps, total_steps),
                ("answers", ckpt.extra.get("answers"), table.answers),
                # older runs stored a QA-phase peak rate; only their null one resumes
                ("phase2_lr", ckpt.extra.get("phase2_lr"), None),
                *((key, ckpt.extra[key], value) for key, value in run_extra.items()
                  if key in ckpt.extra),
                *((f.name, getattr(ckpt.config, f.name), getattr(cfg, f.name))
                  for f in fields(ModelConfig))):
            if stored != given:
                raise ValueError(f"{resume} was trained with {name} {stored}, but the "
                                 f"config and corpus give {given}; resume under the same "
                                 "schedule and corpus")
        train_rng = _restore_rng(ckpt.rng_state)
    else:
        init_rng, train_rng = _rngs(seed)
        params = init_params(cfg, init_rng, heads=(PRETRAIN_HEADS,))
        opt = OptimizerState.init(params, sched.peak_lr, sched.warmup_fraction, total_steps)

    maker = BatchMaker(train_records, bundle.store, bundle.vocab, table,
                       run_cfg.masking, cfg)
    rt = Runtime(training=True, rng=train_rng)
    qa_start = _step_count(len(train_records), sched.batch_size,
                           round(sched.epochs * sched.qa_start_fraction))

    def step_loss(chunk):
        rows = [maker.make_row(r, train_rng) for r in chunk]
        packed = collate(CrossModalBatch(rows), bundle.vocab)
        out = forward_batch(packed, params, cfg, rt)
        losses = pretrain_losses(packed, out, params, qa_enabled=opt.step >= qa_start,
                                 gate_object_tasks=sched.gate_object_tasks)
        return losses.total, {**losses.floats(), "mlm_count": losses.mlm_count,
                              "obj_count": losses.obj_count, "match_count": losses.match_count,
                              "qa_count": losses.qa_count}

    def checkpoint(epoch: int) -> Checkpoint:
        return Checkpoint(config=cfg, heads=(PRETRAIN_HEADS,), params=params,
                          extra={"epoch": epoch, "answers": table.answers,
                                 "answer_coverage": sched.answer_coverage, **run_extra})

    return _fit(train_records, step_loss, params, train_rng, out_dir, checkpoint, opt,
                batch_size=sched.batch_size, clip_norm=sched.clip_norm, log=log,
                save_epochs=sched.checkpoint_every_epoch)


# ---------------------------------------------------------------------------
# evaluation


_EVAL_BATCH = 32


def _batched(items, size):
    for i in range(0, len(items), size):
        yield items[i:i + size]


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else float("nan")


def _eval_split(bundle: DataBundle) -> list[CorpusRecord]:
    return bundle.split("dev") or bundle.split("train")


def _qa_batch(questions: list[CorpusRecord], bundle: DataBundle, cfg: ModelConfig,
              table: AnswerTable) -> PackedBatch:
    rows = [plain_row(r.image_id, r.sentence, bundle.store, bundle.vocab, cfg,
                      is_question=r.is_question, answer_index=table.lookup(r.answer))
            for r in questions]
    return collate(CrossModalBatch(rows), bundle.vocab)


def _cached(cache: dict, keys: list, rows, run) -> list:
    """``cache[keys[i]]`` for each batch row ``i`` in ``rows``.

    Keys not yet in ``cache`` are filled first by one call ``run(fresh)``,
    where ``fresh`` holds one batch row per such key, so a key that repeats
    in the batch runs once; it returns one value per row of ``fresh``.
    """
    fresh = list({keys[i]: i for i in rows if keys[i] not in cache}.values())
    if fresh:
        cache.update(zip((keys[i] for i in fresh), run(fresh)))
    return [cache[keys[i]] for i in rows]


class _DevScorer:
    """Eval-mode forward passes of one evaluation, running each stage once per input.

    A sentence's language-stack states depend on its token ids alone, and
    an image's object-stack states on its objects and their mask flags
    alone, so each distinct token sequence and each distinct (image id,
    mask flags) is encoded by the first batch that holds it. A row's final
    [CLS] vector depends on both, so it is kept under the pair of keys;
    a batch runs the cross stack only for the rows whose pair it has not
    seen, once per pair. The cross stack runs only the last layer's
    sub-layers that the asked-for output reads (``encoders.cross_stack``).
    Everything is kept until the scorer is dropped: at most rows × longest
    sentence × d language values, rows × m × d object values and rows × d
    [CLS] values, in float32.
    """

    def __init__(self, params: dict[str, Tensor], cfg: ModelConfig):
        self.params = params
        self.cfg = cfg
        self.lang: dict[bytes, np.ndarray] = {}               # token ids -> (n, d)
        self.vis: dict[tuple[str, bytes], np.ndarray] = {}    # (image id, mask flags) -> (m, d)
        self.cls: dict[tuple, np.ndarray] = {}                # (both keys) -> (d,)

    def cls_rows(self, image_ids: list[str], packed: PackedBatch) -> Tensor:
        """``forward_batch(packed).cls`` in eval mode, up to float32 rounding, for
        rows showing ``image_ids``."""
        tokens, objects = self._keys(image_ids, packed)

        def run(rows):
            return cross_stack(*self._inputs(packed, tokens, objects, rows), self.params,
                               self.cfg, keep="cls").cls.data

        keys = list(zip(tokens, objects))
        return Tensor(np.stack(_cached(self.cls, keys, range(len(keys)), run)))

    def object_rows(self, image_ids: list[str], packed: PackedBatch) -> Tensor:
        """``forward_batch(packed).vis`` in eval mode, up to float32 rounding."""
        tokens, objects = self._keys(image_ids, packed)
        return cross_stack(*self._inputs(packed, tokens, objects, range(len(tokens))),
                           self.params, self.cfg, keep="vis").vis

    @staticmethod
    def _keys(image_ids, packed: PackedBatch) -> tuple[list, list]:
        """Each row's sentence key (its token ids) and object key (image id, mask flags)."""
        lengths = packed.token_mask.sum(axis=1)
        return ([ids[:k].tobytes() for ids, k in zip(packed.token_ids, lengths)],
                [(i, flags.tobytes()) for i, flags in zip(image_ids, packed.obj_mask_flags)])

    def _inputs(self, packed: PackedBatch, tokens, objects, rows) -> tuple:
        """The cross stack's inputs for the batch rows ``rows``: language and object
        states, token mask and object mask, padded to the rows' longest sentence."""
        params, cfg = self.params, self.cfg
        lengths = packed.token_mask.sum(axis=1)

        def sentences(fresh):
            n = lengths[fresh].max()
            states, _ = language_stack(packed.token_ids[fresh, :n], packed.token_mask[fresh, :n],
                                       params, cfg)
            return [row[:lengths[i]] for i, row in zip(fresh, states.data)]

        def images(fresh):
            states, _ = object_stack(packed.roi_features[fresh], packed.boxes[fresh],
                                     packed.obj_mask_flags[fresh], packed.obj_real[fresh],
                                     params, cfg)
            return states.data

        rows = list(rows)
        lang_states = _cached(self.lang, tokens, rows, sentences)
        n = max(len(s) for s in lang_states)
        # padded positions stay zero: the cross stack masks them as context
        lang = np.zeros((len(rows), n, cfg.hidden_size), lang_states[0].dtype)
        for row, states in zip(lang, lang_states):
            row[:len(states)] = states
        vis = np.stack(_cached(self.vis, objects, rows, images))
        return Tensor(lang), Tensor(vis), packed.token_mask[rows, :n], packed.obj_real[rows]


def _accuracy(params: dict[str, Tensor], batches, head: str, pick) -> tuple[int, int]:
    """Argmax hits of ``head`` over ``batches`` of (image ids, packed batch), and the
    number scored.

    ``pick(image_ids, packed)`` returns the head's input rows for a batch and
    their true classes.
    """
    hits = total = 0
    for image_ids, packed in batches:
        x, truth = pick(image_ids, packed)
        hits += int((head_logits(x, params, head).data.argmax(axis=1) == truth).sum())
        total += len(truth)
    return hits, total


def _masked_labels(vis: Tensor, packed: PackedBatch) -> tuple[Tensor, np.ndarray]:
    rows, picked = masked_object_rows(vis, packed.obj_mask_flags)
    return rows, packed.detected_labels.reshape(-1)[picked]


def _qa_accuracy(scorer: _DevScorer, bundle: DataBundle, table: AnswerTable) -> tuple[float, int]:
    """QA accuracy over matched, in-table held-out questions, and their count."""
    questions = [r for r in _eval_split(bundle)
                 if r.is_question and table.lookup(r.answer) != OUT_OF_TABLE]
    batches = (([r.image_id for r in chunk], _qa_batch(chunk, bundle, scorer.cfg, table))
               for chunk in _batched(questions, _EVAL_BATCH))
    hits, total = _accuracy(scorer.params, batches, "head.qa", lambda image_ids, packed: (
        scorer.cls_rows(image_ids, packed), packed.answer_indices))
    return _ratio(hits, total), total


def evaluate_checkpoint(ckpt: Checkpoint, bundle: DataBundle, seed: int) -> dict:
    """Held-out metrics: matching accuracy, masked-label accuracy, QA accuracy.

    The matching pass mismatches half the rows and masks nothing; the
    masked-label pass masks 15% of the objects and scores only the rows
    with a masked object. The matching pass needs, for every image, a
    sentence of another image that it lacks (``data.can_mismatch``); on a
    split without one, such as a one-image split, it is skipped
    (``match_n`` 0, ``match_accuracy`` NaN) and the other two passes still
    run. All three passes share one ``_DevScorer``.
    """
    cfg = ckpt.config
    _check_data(cfg, bundle)
    answers = list((ckpt.extra or {}).get("answers", []))
    table = AnswerTable(answers)
    dev = _eval_split(bundle)
    scorer = _DevScorer(ckpt.params, cfg)
    rng = np.random.default_rng(seed)

    def batches(masking: MaskingConfig, keep=None):
        """Each chunk's rows that ``keep`` accepts (all by default), with their image ids."""
        maker = BatchMaker(dev, bundle.store, bundle.vocab, table, masking, cfg)
        for chunk in _batched(dev, _EVAL_BATCH):
            kept = [(r.image_id, row) for r, row in zip(chunk, maker.make_batch(chunk, rng).rows)
                    if keep is None or keep(row)]
            if kept:
                image_ids, rows = zip(*kept)
                yield list(image_ids), collate(CrossModalBatch(list(rows)), bundle.vocab)

    match_hits = match_total = 0
    if can_mismatch(dev):
        match_hits, match_total = _accuracy(
            ckpt.params,
            batches(MaskingConfig(word_mask_prob=0.0, object_mask_prob=0.0, mismatch_prob=0.5)),
            "head.match", lambda image_ids, packed: (scorer.cls_rows(image_ids, packed),
                                                     packed.match_labels))
    # a row with no masked object holds no label target, so it is not run
    label_hits, label_total = _accuracy(
        ckpt.params,
        batches(MaskingConfig(word_mask_prob=0.0, mismatch_prob=0.0, object_mask_prob=0.15),
                keep=lambda row: row.obj_mask_flags.any()),
        "head.obj_label", lambda image_ids, packed: _masked_labels(
            scorer.object_rows(image_ids, packed), packed))
    qa_accuracy, qa_total = _qa_accuracy(scorer, bundle, table)
    return {
        "match_accuracy": _ratio(match_hits, match_total),
        "match_n": match_total,
        "masked_label_accuracy": _ratio(label_hits, label_total),
        "masked_label_n": label_total,
        "label_chance": 1.0 / cfg.num_labels if cfg.num_labels else float("nan"),
        "qa_accuracy": qa_accuracy,
        "qa_n": qa_total,
    }


# ---------------------------------------------------------------------------
# fine-tuning


def run_finetune_qa(ckpt: Checkpoint, bundle: DataBundle, run_cfg: RunConfig,
                    seed: int, out_dir, log=None) -> RunResult:
    """Fine-tune on question answering with a fresh answer head by default."""
    ft = run_cfg.finetune.validate()
    cfg = ckpt.config
    _check_data(cfg, bundle)
    train_qs = [r for r in bundle.split("train") if r.is_question]
    if not train_qs:
        raise ValueError("fine-tuning corpus has no train questions")

    head_rng, train_rng = _rngs(seed)
    params = _clone_params(ckpt.params)
    if ft.reuse_qa_head:
        answers = list((ckpt.extra or {}).get("answers", []))
        if not answers:
            raise ValueError("--reuse-qa-head needs a checkpoint with a stored answer table")
        table = AnswerTable(answers)
    else:
        table = build_answer_table(train_qs, coverage_target=1.0)
        cfg = replace(cfg, num_answers=len(table)).validate()
        fresh = init_head_params(cfg, head_rng, PRETRAIN_HEADS)
        params["head.qa.w"] = fresh["head.qa.w"]
        params["head.qa.b"] = fresh["head.qa.b"]
    rt = Runtime(training=True, rng=train_rng)

    def step_loss(chunk):
        packed = _qa_batch(chunk, bundle, cfg, table)
        out = forward_batch(packed, params, cfg, rt)
        loss, _ = qa_loss(out.cls, packed.answer_indices, packed.match_labels,
                          packed.is_question, params)
        return loss, {"loss": loss.item()}

    rows_train = [r for r in train_qs if table.lookup(r.answer) != OUT_OF_TABLE]
    result = _fit(
        rows_train, step_loss, params, train_rng, out_dir,
        lambda _: Checkpoint(config=cfg, heads=(PRETRAIN_HEADS,), params=params,
                             extra={"answers": table.answers, "finetuned": "qa"}),
        OptimizerState.init(params, ft.lr, ft.warmup_fraction,
                            _step_count(len(rows_train), ft.batch_size, ft.epochs)),
        batch_size=ft.batch_size, clip_norm=ft.clip_norm, log=log)
    return replace(result, dev_accuracy=_qa_accuracy(_DevScorer(params, cfg), bundle, table)[0])


def _pair_rows(pairs: list[PairRecord], store: FeatureStore, vocab: Vocabulary,
               cfg: ModelConfig):
    rows0 = [plain_row(p.image_id_0, p.sentence, store, vocab, cfg) for p in pairs]
    rows1 = [plain_row(p.image_id_1, p.sentence, store, vocab, cfg) for p in pairs]
    return rows0, rows1, np.array([int(p.label) for p in pairs], dtype=np.int64)


def _pair_cls(pairs: list[PairRecord], bundle: DataBundle, cfg: ModelConfig, cls_of):
    """Both images' [CLS] vectors for each pair, and the pair labels.

    ``cls_of(image_ids, packed)`` gives a packed batch's [CLS] rows; it runs
    on the first images' batch, then on the second images'.
    """
    rows0, rows1, labels = _pair_rows(pairs, bundle.store, bundle.vocab, cfg)
    cls0 = cls_of([p.image_id_0 for p in pairs], collate(CrossModalBatch(rows0), bundle.vocab))
    cls1 = cls_of([p.image_id_1 for p in pairs], collate(CrossModalBatch(rows1), bundle.vocab))
    return cls0, cls1, labels


def run_finetune_pairwise(ckpt: Checkpoint, bundle: DataBundle, run_cfg: RunConfig,
                          seed: int, out_dir, log=None) -> RunResult:
    """Fine-tune the two-image head: both passes share the encoder parameters."""
    ft = run_cfg.finetune.validate()
    cfg = ckpt.config
    _check_data(cfg, bundle)
    if bundle.pairs is None:
        raise ValueError("pairwise fine-tuning needs a pair corpus (two image ids per record)")
    train_pairs = [p for p in bundle.pairs if p.split == "train"]
    dev_pairs = [p for p in bundle.pairs if p.split == "dev"] or train_pairs
    if not train_pairs:
        raise ValueError("pair corpus has no train records")

    head_rng, train_rng = _rngs(seed)
    params = _clone_params(ckpt.params)
    params.update(init_head_params(cfg, head_rng, PAIRWISE_HEAD))
    heads = tuple(dict.fromkeys(list(ckpt.heads) + [PAIRWISE_HEAD]))
    rt = Runtime(training=True, rng=train_rng)

    def step_loss(chunk):
        cls0, cls1, labels = _pair_cls(
            chunk, bundle, cfg, lambda _, packed: forward_batch(packed, params, cfg, rt).cls)
        loss = pairwise_bce(pairwise_logit(cls0, cls1, params, cfg.ln_eps), labels)
        return loss, {"loss": loss.item()}

    result = _fit(
        train_pairs, step_loss, params, train_rng, out_dir,
        lambda _: Checkpoint(config=cfg, heads=heads, params=params,
                             extra={**(ckpt.extra or {}), "finetuned": "pairwise"}),
        OptimizerState.init(params, ft.lr, ft.warmup_fraction,
                            _step_count(len(train_pairs), ft.batch_size, ft.epochs)),
        batch_size=ft.batch_size, clip_norm=ft.clip_norm, log=log)

    hits = 0
    scorer = _DevScorer(params, cfg)
    for chunk in _batched(dev_pairs, ft.batch_size):
        cls0, cls1, labels = _pair_cls(chunk, bundle, cfg, scorer.cls_rows)
        prob = pairwise_forward(cls0, cls1, params, cfg.ln_eps).data
        hits += int(((prob > 0.5).astype(int) == labels).sum())
    return replace(result, dev_accuracy=_ratio(hits, len(dev_pairs)))


# ---------------------------------------------------------------------------
# attention dump


def dump_attention(ckpt: Checkpoint, bundle: DataBundle, index: int, out_path) -> dict:
    """Run row ``index`` of the evaluation split through the model and write
    every attention matrix.

    The dump is JSON keyed by encoder name, layer, head and direction; each
    matrix row is a softmax distribution over the context and carries token
    or object row labels.
    """
    rows = _eval_split(bundle)
    if not 0 <= index < len(rows):
        raise ValueError(f"record index {index} out of range [0, {len(rows)})")
    record = rows[index]
    cfg = ckpt.config
    _check_data(cfg, bundle)
    row = plain_row(record.image_id, record.sentence, bundle.store, bundle.vocab, cfg)
    out = forward_batch(collate(CrossModalBatch([row]), bundle.vocab), ckpt.params, cfg)

    token_labels = [bundle.vocab.token_of(int(t)) for t in row.token_ids]
    object_labels = []
    for j, (label, box) in enumerate(zip(row.detected_labels, row.boxes)):
        box_text = ", ".join(f"{v:.3f}" for v in box)
        object_labels.append(f"obj{j} {bundle.label_names[label]} [{box_text}]")

    def labels_for(direction: str) -> tuple[list[str], list[str]]:
        if direction == "self-L":
            return token_labels, token_labels
        if direction == "self-R":
            return object_labels, object_labels
        if direction == "cross-L->R":
            return token_labels, object_labels
        return object_labels, token_labels

    groups = []
    for rec in out.attention:
        q_labels, c_labels = labels_for(rec.direction)
        groups.append({
            "encoder": rec.encoder,
            "layer": rec.layer,
            "direction": rec.direction,
            "query_labels": q_labels,
            "context_labels": c_labels,
            "heads": [rec.weights[0, h].tolist() for h in range(rec.weights.shape[1])],
        })
    dump = {
        "image_id": record.image_id,
        "sentence": record.sentence,
        "tokens": token_labels,
        "objects": object_labels,
        "groups": groups,
    }
    with atomic_open(out_path) as fh:
        json.dump(dump, fh, indent=1)
        fh.write("\n")
    return dump
