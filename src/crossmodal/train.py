"""Training loops, evaluation, attention dumps, and data-directory plumbing.

Pre-training and both fine-tuning tasks run through one loop, ``_fit``.
Each epoch it draws one shuffle of the rows; each step it zeroes the
gradients, records the caller's step loss on a tape, back-propagates,
clips, sets the scheduled learning rate, takes an Adam step and appends one
metrics line. Pre-training runs in two phases: the QA loss is disabled for
the first part of the epochs and enabled for the rest
(``qa_start_fraction``, default the second half). Checkpoints are saved per
epoch with optimizer and rng state, so training can resume and reproduce
the uninterrupted run exactly.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ModelConfig, RunConfig
from .data import (
    OUT_OF_TABLE,
    AnswerTable,
    BatchMaker,
    BatchRow,
    CorpusRecord,
    CrossModalBatch,
    FeatureStore,
    MaskingConfig,
    ObjectSet,
    PairRecord,
    Vocabulary,
    build_answer_table,
    collate,
    load_corpus,
    load_pairs,
    tokenize,
)
from .encoders import EVAL, Runtime, forward_batch
from .heads import (
    head_logits,
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
    """Load the gen-data output directory."""
    records = load_corpus(os.path.join(path, CORPUS_FILE))
    store = FeatureStore.load(os.path.join(path, FEATURES_FILE))
    vocab = Vocabulary.load(os.path.join(path, VOCAB_FILE))
    labels_path = os.path.join(path, LABELS_FILE)
    if os.path.exists(labels_path):
        with open(labels_path, "r", encoding="utf-8") as fh:
            label_names = json.load(fh)["labels"]
    else:
        label_names = [f"label{i}" for i in range(store.num_labels())]
    pairs_path = os.path.join(path, PAIRS_FILE)
    pairs = load_pairs(pairs_path) if os.path.exists(pairs_path) else None
    return DataBundle(records, store, vocab, label_names, pairs)


def resolve_model_config(model: ModelConfig, bundle: DataBundle,
                         answer_coverage: float) -> tuple[ModelConfig, AnswerTable]:
    """Fill the data-derived config fields and check corpus compatibility."""
    if bundle.store.m != model.objects_per_image:
        raise ValueError(
            f"feature store holds {bundle.store.m} objects per image, "
            f"config expects {model.objects_per_image}"
        )
    if bundle.store.feat_dim != model.feat_dim:
        raise ValueError(
            f"feature store feat_dim {bundle.store.feat_dim} != config feat_dim {model.feat_dim}"
        )
    table = build_answer_table(bundle.split("train"), answer_coverage)
    cfg = replace(
        model,
        vocab_size=len(bundle.vocab),
        num_labels=len(bundle.label_names),
        num_answers=len(table),
    ).validate()
    return cfg, table


def make_initial_checkpoint(run_cfg: RunConfig, bundle: DataBundle, seed: int) -> Checkpoint:
    """Randomly initialized checkpoint with data-derived sizes resolved.

    Uses the same seed derivation as run_pretraining, so this equals the
    state a pre-training run with the same seed starts from.
    """
    cfg, table = resolve_model_config(run_cfg.model, bundle, run_cfg.schedule.answer_coverage)
    init_seed, _ = np.random.SeedSequence(seed).spawn(2)
    params = init_params(cfg, np.random.default_rng(init_seed), heads=(PRETRAIN_HEADS,))
    return Checkpoint(config=cfg, heads=(PRETRAIN_HEADS,), params=params,
                      extra={"answers": table.answers, "epoch": 0})


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def _clone_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Copy parameters so in-place optimizer updates cannot leak to the caller."""
    return {name: Tensor(p.data.copy(), requires_grad=True) for name, p in params.items()}


def _total_steps(n_items: int, batch_size: int, epochs: int) -> int:
    return math.ceil(n_items / batch_size) * epochs


def _fit(items: list, step_loss, params: dict[str, Tensor], opt: OptimizerState,
         rng: np.random.Generator, metrics_path, *, epochs: int, batch_size: int,
         peak_lr: float, warmup_fraction: float, clip_norm: float | None, log=None,
         phase2_epoch: int | None = None, phase2_lr: float | None = None,
         resume_epoch: int | None = None, end_epoch=None) -> list[dict]:
    """Train ``params`` in place over ``items``; return the metrics lines written.

    Each epoch draws one permutation of ``items`` from ``rng``. Each step
    calls ``step_loss(chunk, phase2)`` under a tape; it returns the scalar
    loss and the loss fields of the metrics line. ``phase2`` is true from
    epoch ``phase2_epoch`` on, where ``phase2_lr`` (when set) replaces the
    peak learning rate. With ``resume_epoch`` the run starts at that epoch
    and appends to ``metrics_path``, after dropping the lines a crashed run
    wrote from that epoch on. ``end_epoch(epoch)`` runs after every epoch,
    once the epoch's metrics lines are flushed. Each line also carries the
    global gradient norm before clipping.
    """
    steps_per_epoch = math.ceil(len(items) / batch_size)
    total_steps = steps_per_epoch * epochs
    history: list[dict] = []
    t0 = time.time()
    if resume_epoch is not None:
        _drop_metrics_from(metrics_path, resume_epoch * steps_per_epoch)
    with open(metrics_path, "w" if resume_epoch is None else "a", encoding="utf-8") as metrics:
        for epoch in range(resume_epoch or 0, epochs):
            phase2 = phase2_epoch is not None and epoch >= phase2_epoch
            peak = phase2_lr if phase2 and phase2_lr is not None else peak_lr
            order = rng.permutation(len(items))
            for i in range(steps_per_epoch):
                step = epoch * steps_per_epoch + i
                chunk = [items[j] for j in order[i * batch_size:(i + 1) * batch_size]]
                zero_grads(params)
                with Tape():
                    loss, fields = step_loss(chunk, phase2)
                    backward(loss)
                grad_norm = clip_gradients(params, clip_norm)
                lr = lr_at_step(step, peak, warmup_fraction, total_steps)
                adam_step(params, {name: p.grad for name, p in params.items()}, opt, lr)

                line = {"step": step, "lr": lr, **fields, "grad_norm": grad_norm,
                        "wall_time": time.time() - t0}
                metrics.write(json.dumps(line) + "\n")
                history.append(line)
                if log is not None and (step % 50 == 0 or step == total_steps - 1):
                    log(f"step {step}/{total_steps} lr={lr:.2e} loss={loss.item():.4f}")
            if end_epoch is not None:
                metrics.flush()
                end_epoch(epoch)
    return history


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
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    os.replace(tmp, path)


@dataclass
class PretrainResult:
    final_checkpoint: str
    metrics_path: str
    history: list[dict]
    config: ModelConfig
    answers: list[str]


def run_pretraining(bundle: DataBundle, run_cfg: RunConfig, seed: int, out_dir,
                    resume: str | None = None, log=None) -> PretrainResult:
    """Two-phase pre-training over the train split.

    Phase 1 runs with the QA loss forced to zero; phase 2 enables it. All
    randomness (masking, mismatching, shuffling, dropout) is drawn from one
    generator whose state is checkpointed, so a resumed run reproduces the
    uninterrupted loss sequence exactly.
    """
    run_cfg.validate()
    sched = run_cfg.schedule
    os.makedirs(out_dir, exist_ok=True)

    train_records = bundle.split("train")
    if not train_records:
        raise ValueError("corpus has no train records")
    cfg, table = resolve_model_config(run_cfg.model, bundle, sched.answer_coverage)

    resume_epoch = None
    if resume is not None:
        ckpt = load_checkpoint(resume, expected_config=cfg)
        params = ckpt.params
        opt = ckpt.opt_state
        if opt is None:
            raise ValueError("resume checkpoint has no optimizer state")
        if "epoch" not in ckpt.extra or "finetuned" in ckpt.extra:
            raise ValueError(
                f"{resume} is not a pre-training checkpoint (no epoch, or fine-tuned); "
                "resume from a checkpoint-epoch-N or checkpoint-final file of pretrain")
        train_rng = _restore_rng(ckpt.rng_state)
        resume_epoch = int(ckpt.extra["epoch"])
    else:
        seeds = np.random.SeedSequence(seed).spawn(2)
        init_rng = np.random.default_rng(seeds[0])
        train_rng = np.random.default_rng(seeds[1])
        params = init_params(cfg, init_rng, heads=(PRETRAIN_HEADS,))
        total_steps = _total_steps(len(train_records), sched.batch_size, sched.epochs)
        opt = OptimizerState.init(params, sched.peak_lr, sched.warmup_fraction, total_steps)

    maker = BatchMaker(train_records, bundle.store, bundle.vocab, table,
                       run_cfg.masking, cfg)
    rt = Runtime(training=True, rng=train_rng)

    def step_loss(chunk, qa_enabled):
        rows = [maker.make_row(r, train_rng) for r in chunk]
        packed = collate(CrossModalBatch(rows), bundle.vocab)
        out = forward_batch(packed, params, cfg, rt)
        losses = pretrain_losses(packed, out, params, qa_enabled=qa_enabled,
                                 gate_object_tasks=sched.gate_object_tasks)
        return losses.total, losses.floats()

    def checkpoint(epoch: int) -> Checkpoint:
        return Checkpoint(
            config=cfg, heads=(PRETRAIN_HEADS,), params=params,
            opt_state=opt, rng_state=_rng_state(train_rng),
            extra={"epoch": epoch, "answers": table.answers,
                   "answer_coverage": sched.answer_coverage})

    def save_epoch(epoch: int) -> None:
        save_checkpoint(os.path.join(out_dir, f"checkpoint-epoch-{epoch + 1}.ckpt"),
                        checkpoint(epoch + 1))

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    history = _fit(
        train_records, step_loss, params, opt, train_rng, metrics_path,
        epochs=sched.epochs, batch_size=sched.batch_size, peak_lr=sched.peak_lr,
        warmup_fraction=sched.warmup_fraction, clip_norm=sched.clip_norm, log=log,
        phase2_epoch=int(round(sched.epochs * sched.qa_start_fraction)),
        phase2_lr=sched.phase2_lr, resume_epoch=resume_epoch,
        end_epoch=save_epoch if sched.checkpoint_every_epoch else None)

    final_path = os.path.join(out_dir, "checkpoint-final.ckpt")
    save_checkpoint(final_path, checkpoint(sched.epochs))
    return PretrainResult(final_path, metrics_path, history, cfg, table.answers)


# ---------------------------------------------------------------------------
# evaluation


def _plain_row(record: CorpusRecord, store: FeatureStore, vocab: Vocabulary,
               cfg: ModelConfig, answer_index: int = OUT_OF_TABLE) -> BatchRow:
    seq = tokenize(record.sentence, vocab, cfg.max_sentence_len, cfg.use_sep)
    seq.mlm_targets = np.full(seq.token_ids.shape, -1, dtype=np.int64)
    feats, boxes, labels = store.get(record.image_id)
    objects = ObjectSet(feats, boxes, labels.astype(np.int64),
                        mask_flags=np.zeros(store.m, dtype=bool),
                        regression_targets=feats)
    return BatchRow(seq, objects, True, answer_index, record.is_question)


def _batched(items, size):
    for i in range(0, len(items), size):
        yield items[i:i + size]


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else float("nan")


def _eval_split(bundle: DataBundle) -> list[CorpusRecord]:
    return bundle.split("dev") or bundle.split("train")


def _qa_accuracy(params: dict[str, Tensor], cfg: ModelConfig, bundle: DataBundle,
                 table: AnswerTable, batch_size: int = 32) -> tuple[float, int]:
    """QA accuracy over matched, in-table held-out questions, and their count."""
    questions = [r for r in _eval_split(bundle)
                 if r.is_question and table.lookup(r.answer) != OUT_OF_TABLE]
    hits = 0
    for chunk in _batched(questions, batch_size):
        rows = [_plain_row(r, bundle.store, bundle.vocab, cfg, table.lookup(r.answer))
                for r in chunk]
        packed = collate(CrossModalBatch(rows), bundle.vocab)
        out = forward_batch(packed, params, cfg)
        logits = head_logits(out.cls, params, "head.qa").data
        hits += int((logits.argmax(axis=1) == packed.answer_indices).sum())
    return _ratio(hits, len(questions)), len(questions)


def evaluate_checkpoint(ckpt: Checkpoint, bundle: DataBundle, seed: int,
                        batch_size: int = 32,
                        masking: MaskingConfig | None = None) -> dict:
    """Held-out metrics: matching accuracy, masked-label accuracy, QA accuracy.

    The matching pass needs at least two distinct images to draw mismatched
    rows from; on a split with fewer it is skipped (``match_n`` 0,
    ``match_accuracy`` NaN) and the other two passes still run.
    """
    cfg = ckpt.config
    if len(bundle.vocab) != cfg.vocab_size:
        raise ValueError(
            f"vocabulary size {len(bundle.vocab)} != checkpoint vocab_size {cfg.vocab_size}"
        )
    answers = list((ckpt.extra or {}).get("answers", []))
    table = AnswerTable(answers)
    dev = _eval_split(bundle)
    params = ckpt.params
    rng = np.random.default_rng(seed)
    masking = masking or MaskingConfig()

    # matching: mismatch half the rows, nothing else perturbed
    match_cfg = MaskingConfig(word_mask_prob=0.0, object_mask_prob=0.0,
                              mismatch_prob=masking.mismatch_prob or 0.5)
    match_hits = match_total = 0
    if len({r.image_id for r in dev}) >= 2:
        maker = BatchMaker(dev, bundle.store, bundle.vocab, table, match_cfg, cfg)
        for chunk in _batched(dev, batch_size):
            packed = collate(maker.make_batch(chunk, rng), bundle.vocab)
            out = forward_batch(packed, params, cfg)
            logits = head_logits(out.cls, params, "head.match").data
            match_hits += int((logits.argmax(axis=1) == packed.match_labels).sum())
            match_total += packed.size

    # masked detected-label accuracy
    label_cfg = MaskingConfig(word_mask_prob=0.0, mismatch_prob=0.0,
                              object_mask_prob=max(masking.object_mask_prob, 0.15))
    maker = BatchMaker(dev, bundle.store, bundle.vocab, table, label_cfg, cfg)
    label_hits = label_total = 0
    for chunk in _batched(dev, batch_size):
        packed = collate(maker.make_batch(chunk, rng), bundle.vocab)
        out = forward_batch(packed, params, cfg)
        flags = packed.obj_mask_flags.reshape(-1)
        if not flags.any():
            continue
        b, m, d = out.vis.shape
        logits = head_logits(out.vis.reshape((b * m, d))[flags], params, "head.obj_label").data
        truth = packed.detected_labels.reshape(-1)[flags]
        label_hits += int((logits.argmax(axis=1) == truth).sum())
        label_total += int(flags.sum())

    qa_accuracy, qa_total = _qa_accuracy(params, cfg, bundle, table, batch_size)
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


@dataclass
class FinetuneResult:
    final_checkpoint: str
    metrics_path: str
    history: list[dict]
    dev_accuracy: float
    answers: list[str] | None = None


def run_finetune_qa(ckpt: Checkpoint, bundle: DataBundle, run_cfg: RunConfig,
                    seed: int, out_dir, log=None) -> FinetuneResult:
    """Fine-tune on question answering with a fresh answer head by default."""
    ft = run_cfg.finetune.validate()
    os.makedirs(out_dir, exist_ok=True)
    cfg = ckpt.config
    if len(bundle.vocab) != cfg.vocab_size:
        raise ValueError("vocabulary does not match the checkpoint")
    train_qs = [r for r in bundle.split("train") if r.is_question]
    if not train_qs:
        raise ValueError("fine-tuning corpus has no train questions")

    seeds = np.random.SeedSequence(seed).spawn(2)
    head_rng = np.random.default_rng(seeds[0])
    train_rng = np.random.default_rng(seeds[1])

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

    rows_train = [r for r in train_qs if table.lookup(r.answer) != OUT_OF_TABLE]
    total_steps = _total_steps(len(rows_train), ft.batch_size, ft.epochs)
    opt = OptimizerState.init(params, ft.lr, ft.warmup_fraction, total_steps)
    rt = Runtime(training=True, rng=train_rng)

    def step_loss(chunk, _phase2):
        rows = [_plain_row(r, bundle.store, bundle.vocab, cfg, table.lookup(r.answer))
                for r in chunk]
        packed = collate(CrossModalBatch(rows), bundle.vocab)
        out = forward_batch(packed, params, cfg, rt)
        loss, _ = qa_loss(out.cls, packed.answer_indices, packed.match_labels,
                          packed.is_question, params)
        return loss, {"loss": loss.item()}

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    history = _fit(rows_train, step_loss, params, opt, train_rng, metrics_path,
                   epochs=ft.epochs, batch_size=ft.batch_size, peak_lr=ft.lr,
                   warmup_fraction=ft.warmup_fraction, clip_norm=ft.clip_norm, log=log)

    final = Checkpoint(config=cfg, heads=(PRETRAIN_HEADS,), params=params,
                       opt_state=opt, rng_state=_rng_state(train_rng),
                       extra={"answers": table.answers, "finetuned": "qa"})
    final_path = os.path.join(out_dir, "checkpoint-final.ckpt")
    save_checkpoint(final_path, final)
    dev_accuracy, _ = _qa_accuracy(params, cfg, bundle, table)
    return FinetuneResult(final_path, metrics_path, history,
                          dev_accuracy=dev_accuracy, answers=table.answers)


def _pair_rows(pairs: list[PairRecord], store: FeatureStore, vocab: Vocabulary,
               cfg: ModelConfig):
    packed0, packed1, labels = [], [], []
    for p in pairs:
        r0 = CorpusRecord(p.image_id_0, p.sentence, False, None, p.split)
        r1 = CorpusRecord(p.image_id_1, p.sentence, False, None, p.split)
        packed0.append(_plain_row(r0, store, vocab, cfg))
        packed1.append(_plain_row(r1, store, vocab, cfg))
        labels.append(int(p.label))
    return packed0, packed1, np.array(labels, dtype=np.int64)


def _pair_cls(pairs: list[PairRecord], params: dict[str, Tensor], cfg: ModelConfig,
              bundle: DataBundle, rt: Runtime = EVAL):
    """Both images' [CLS] vectors for each pair, and the pair labels."""
    rows0, rows1, labels = _pair_rows(pairs, bundle.store, bundle.vocab, cfg)
    out0 = forward_batch(collate(CrossModalBatch(rows0), bundle.vocab), params, cfg, rt)
    out1 = forward_batch(collate(CrossModalBatch(rows1), bundle.vocab), params, cfg, rt)
    return out0.cls, out1.cls, labels


def run_finetune_pairwise(ckpt: Checkpoint, bundle: DataBundle, run_cfg: RunConfig,
                          seed: int, out_dir, log=None) -> FinetuneResult:
    """Fine-tune the two-image head: both passes share the encoder parameters."""
    ft = run_cfg.finetune.validate()
    os.makedirs(out_dir, exist_ok=True)
    cfg = ckpt.config
    if bundle.pairs is None:
        raise ValueError("pairwise fine-tuning needs a pair corpus (two image ids per record)")
    train_pairs = [p for p in bundle.pairs if p.split == "train"]
    dev_pairs = [p for p in bundle.pairs if p.split == "dev"] or train_pairs
    if not train_pairs:
        raise ValueError("pair corpus has no train records")

    seeds = np.random.SeedSequence(seed).spawn(2)
    head_rng = np.random.default_rng(seeds[0])
    train_rng = np.random.default_rng(seeds[1])
    params = _clone_params(ckpt.params)
    params.update(init_head_params(cfg, head_rng, PAIRWISE_HEAD))
    heads = tuple(dict.fromkeys(list(ckpt.heads) + [PAIRWISE_HEAD]))

    total_steps = _total_steps(len(train_pairs), ft.batch_size, ft.epochs)
    opt = OptimizerState.init(params, ft.lr, ft.warmup_fraction, total_steps)
    rt = Runtime(training=True, rng=train_rng)

    def step_loss(chunk, _phase2):
        cls0, cls1, labels = _pair_cls(chunk, params, cfg, bundle, rt)
        loss = pairwise_bce(pairwise_logit(cls0, cls1, params, cfg.ln_eps), labels)
        return loss, {"loss": loss.item()}

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    history = _fit(train_pairs, step_loss, params, opt, train_rng, metrics_path,
                   epochs=ft.epochs, batch_size=ft.batch_size, peak_lr=ft.lr,
                   warmup_fraction=ft.warmup_fraction, clip_norm=ft.clip_norm, log=log)

    hits = 0
    for chunk in _batched(dev_pairs, ft.batch_size):
        cls0, cls1, labels = _pair_cls(chunk, params, cfg, bundle)
        prob = pairwise_forward(cls0, cls1, params, cfg.ln_eps).data
        hits += int(((prob > 0.5).astype(int) == labels).sum())

    final = Checkpoint(config=cfg, heads=heads, params=params,
                       opt_state=opt, rng_state=_rng_state(train_rng),
                       extra={**(ckpt.extra or {}), "finetuned": "pairwise"})
    final_path = os.path.join(out_dir, "checkpoint-final.ckpt")
    save_checkpoint(final_path, final)
    return FinetuneResult(final_path, metrics_path, history,
                          dev_accuracy=_ratio(hits, len(dev_pairs)))


# ---------------------------------------------------------------------------
# attention dump


def dump_attention(ckpt: Checkpoint, bundle: DataBundle, index: int, out_path,
                   split: str = "dev") -> dict:
    """Run one pair through the model and write every attention matrix.

    The dump is JSON keyed by encoder name, layer, head and direction; each
    matrix row is a softmax distribution over the context and carries token
    or object row labels.
    """
    rows = bundle.split(split) or bundle.records
    if not 0 <= index < len(rows):
        raise ValueError(f"record index {index} out of range [0, {len(rows)})")
    record = rows[index]
    cfg = ckpt.config
    row = _plain_row(record, bundle.store, bundle.vocab, cfg)
    out = forward_batch(collate(CrossModalBatch([row]), bundle.vocab), ckpt.params, cfg)

    token_labels = [bundle.vocab.token_of(int(t)) for t in row.tokens.token_ids]
    labels, boxes = row.objects.detected_labels, row.objects.boxes
    object_labels = []
    for j in range(row.objects.m):
        name = bundle.label_names[int(labels[j])] if int(labels[j]) < len(bundle.label_names) else str(int(labels[j]))
        box = ", ".join(f"{v:.3f}" for v in boxes[j])
        object_labels.append(f"obj{j} {name} [{box}]")

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
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh, indent=1)
        fh.write("\n")
    return dump
