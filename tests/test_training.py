"""Training loops: determinism, phase gating, resume, fine-tune plumbing."""

import json
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossmodal.checkpoint import Checkpoint, load_checkpoint
from crossmodal.config import MaskingConfig, RunConfig, ScheduleConfig, FinetuneConfig
from crossmodal.data import (
    DEFAULT_LABELS,
    AnswerTable,
    BatchMaker,
    CrossModalBatch,
    Vocabulary,
    collate,
    generate_pairwise_corpus,
    generate_synthetic_corpus,
    plain_row,
    tokenize,
)
from crossmodal.embeddings import embed_objects, embed_words
from crossmodal.encoders import Runtime, forward_batch
from crossmodal.heads import pairwise_logit, pretrain_losses
from crossmodal.optim import OptimizerState
from crossmodal.params import PRETRAIN_HEADS
from crossmodal.tensor import Tape, Tensor, backward, tsum, zero_grads
import crossmodal.train as train
from crossmodal.train import (
    DataBundle,
    _fit,
    dump_attention,
    evaluate_checkpoint,
    make_initial_checkpoint,
    run_finetune_pairwise,
    run_finetune_qa,
    run_pretraining,
)
from helpers import reference_evaluation


def small_bundle(seed=0, n_images=24, pairs=0):
    records, store = generate_synthetic_corpus(seed=seed, n_images=n_images,
                                               label_vocab=DEFAULT_LABELS)
    vocab = Vocabulary.from_records([r for r in records if r.split == "train"])
    pair_records = None
    if pairs:
        pair_records = generate_pairwise_corpus(store, DEFAULT_LABELS, pairs, seed=seed + 1)
    return DataBundle(records, store, vocab, list(DEFAULT_LABELS), pair_records)


def tiny_run_cfg(epochs=2, batch=8, peak=1e-3, qa_start=0.5):
    cfg = RunConfig()
    cfg.schedule = ScheduleConfig(epochs=epochs, batch_size=batch, peak_lr=peak,
                                  qa_start_fraction=qa_start,
                                  checkpoint_every_epoch=True)
    return cfg


def read_metrics(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def strip_wall_time(lines):
    return [{k: v for k, v in line.items() if k != "wall_time"} for line in lines]


def test_pretraining_smoke_and_loss_decreases(tmp_path):
    bundle = small_bundle(n_images=64)
    cfg = tiny_run_cfg(epochs=4)
    result = run_pretraining(bundle, cfg, seed=0, out_dir=tmp_path / "run")
    assert os.path.exists(result.final_checkpoint)
    first = np.mean([h["total"] for h in result.history[:10]])
    last = np.mean([h["total"] for h in result.history[-10:]])
    assert last < first
    # every metrics line carries the full field set
    lines = read_metrics(result.metrics_path)
    assert len(lines) == len(result.history)
    for line in lines[:5]:
        assert set(line) == {"step", "lr", "mlm", "obj_feat", "obj_label",
                             "match", "qa", "total", "mlm_count", "obj_count",
                             "match_count", "qa_count", "grad_norm", "wall_time"}


def test_phase1_qa_loss_exactly_zero(tmp_path):
    bundle = small_bundle()
    cfg = tiny_run_cfg(epochs=2, qa_start=0.5)
    result = run_pretraining(bundle, cfg, seed=1, out_dir=tmp_path / "run")
    steps_per_epoch = len(result.history) // 2
    for line in result.history[:steps_per_epoch]:
        assert line["qa"] == 0.0 and line["qa_count"] == 0
    assert any(line["qa"] > 0.0 for line in result.history[steps_per_epoch:])
    assert any(line["qa_count"] > 0 for line in result.history[steps_per_epoch:])
    # every row of a step is a matching target
    rows = len(bundle.split("train"))
    assert sum(line["match_count"] for line in result.history) == 2 * rows


def test_phase1_leaves_qa_head_at_initialization(tmp_path):
    bundle = small_bundle()
    cfg = tiny_run_cfg(epochs=1, qa_start=1.0)  # the whole run is phase 1
    result = run_pretraining(bundle, cfg, seed=2, out_dir=tmp_path / "run")
    ckpt = load_checkpoint(result.final_checkpoint)
    fresh = make_initial_checkpoint(cfg, bundle, seed=2)
    # the initial checkpoint derives from the same seed split, so the QA head
    # must be bit-identical after a QA-disabled run
    assert np.array_equal(ckpt.params["head.qa.w"].data, fresh.params["head.qa.w"].data)
    assert np.array_equal(ckpt.params["head.qa.b"].data, fresh.params["head.qa.b"].data)
    assert not np.array_equal(ckpt.params["head.match.w"].data,
                              fresh.params["head.match.w"].data)


PRETRAIN_FIELDS = ["step", "lr", "mlm", "obj_feat", "obj_label", "match", "qa", "total",
                   "mlm_count", "obj_count", "match_count", "qa_count", "grad_norm", "wall_time"]
FINETUNE_FIELDS = ["step", "lr", "loss", "grad_norm", "wall_time"]


def _seeded_run(task, bundle, seed, out_dir):
    if task == "pretrain":
        return run_pretraining(bundle, tiny_run_cfg(epochs=2), seed=seed, out_dir=out_dir)
    ckpt = make_initial_checkpoint(tiny_run_cfg(), bundle, seed=seed)
    cfg = tiny_run_cfg()
    cfg.finetune = FinetuneConfig(lr=1e-3, batch_size=16, epochs=2)
    run = run_finetune_qa if task == "qa" else run_finetune_pairwise
    return run(ckpt, bundle, cfg, seed=seed, out_dir=out_dir)


@pytest.mark.parametrize("task", ["pretrain", "qa", "pairwise"])
def test_fixed_seed_runs_produce_identical_logs(tmp_path, task):
    bundle = small_bundle(pairs=32)
    r1 = _seeded_run(task, bundle, 3, tmp_path / "a")
    r2 = _seeded_run(task, bundle, 3, tmp_path / "b")
    lines = read_metrics(r1.metrics_path)
    assert strip_wall_time(lines) == strip_wall_time(read_metrics(r2.metrics_path))
    # keys and their order as in docs/formats.md
    fields = PRETRAIN_FIELDS if task == "pretrain" else FINETUNE_FIELDS
    assert lines and all(list(line) == fields for line in lines)
    c1 = load_checkpoint(r1.final_checkpoint)
    c2 = load_checkpoint(r2.final_checkpoint)
    for name in c1.params:
        assert np.array_equal(c1.params[name].data, c2.params[name].data)


def test_different_seed_changes_the_run(tmp_path):
    bundle = small_bundle()
    cfg = tiny_run_cfg(epochs=1)
    r1 = run_pretraining(bundle, cfg, seed=4, out_dir=tmp_path / "a")
    r2 = run_pretraining(bundle, cfg, seed=5, out_dir=tmp_path / "b")
    t1 = [h["total"] for h in r1.history]
    t2 = [h["total"] for h in r2.history]
    assert t1 != t2


def test_resume_reproduces_uninterrupted_run(tmp_path):
    bundle = small_bundle()
    cfg = tiny_run_cfg(epochs=4)
    full = run_pretraining(bundle, cfg, seed=6, out_dir=tmp_path / "full")

    half = run_pretraining(bundle, tiny_run_cfg(epochs=4), seed=6,
                           out_dir=tmp_path / "half")
    # restart from the epoch-2 checkpoint of a fresh half-run directory
    resumed = run_pretraining(bundle, tiny_run_cfg(epochs=4), seed=6,
                              out_dir=tmp_path / "resumed",
                              resume=os.path.join(tmp_path / "half", "checkpoint-epoch-2.ckpt"))
    steps_per_epoch = len(full.history) // 4
    tail = full.history[2 * steps_per_epoch:]
    assert len(resumed.history) == len(tail)
    # the resumed run must reproduce the uninterrupted losses exactly
    for a, b in zip(resumed.history, tail):
        assert a["step"] == b["step"]
        assert a["total"] == b["total"]
        assert a["mlm"] == b["mlm"]
    cf = load_checkpoint(full.final_checkpoint)
    cr = load_checkpoint(resumed.final_checkpoint)
    for name in cf.params:
        assert np.array_equal(cf.params[name].data, cr.params[name].data)


def test_pretrain_validates_store_compatibility(tmp_path):
    bundle = small_bundle()
    cfg = tiny_run_cfg()
    cfg.model.feat_dim = 48  # store was built with 32
    with pytest.raises(ValueError, match="feat_dim"):
        run_pretraining(bundle, cfg, seed=0, out_dir=tmp_path / "run")
    cfg2 = tiny_run_cfg()
    cfg2.model.objects_per_image = 10
    with pytest.raises(ValueError, match="objects"):
        run_pretraining(bundle, cfg2, seed=0, out_dir=tmp_path / "run")


def test_evaluate_checkpoint_reports_metrics(tmp_path):
    bundle = small_bundle(n_images=32)
    cfg = tiny_run_cfg(epochs=1)
    result = run_pretraining(bundle, cfg, seed=7, out_dir=tmp_path / "run")
    ckpt = load_checkpoint(result.final_checkpoint)
    metrics = evaluate_checkpoint(ckpt, bundle, seed=0)
    for key in ("match_accuracy", "masked_label_accuracy", "qa_accuracy", "label_chance"):
        assert key in metrics
    assert 0.0 <= metrics["match_accuracy"] <= 1.0
    assert metrics["qa_n"] > 0


@settings(max_examples=20, deadline=None)
@given(corpus_seed=st.integers(0, 2 ** 16), n_images=st.integers(2, 16),
       objects=st.integers(2, 8), dev_fraction=st.floats(0.3, 0.95),
       init_seed=st.integers(0, 2 ** 16), eval_seed=st.integers(0, 2 ** 16))
# the label pass flags no object at all
@example(corpus_seed=1, n_images=2, objects=2, dev_fraction=0.5, init_seed=0, eval_seed=1269)
def test_dev_scorer_matches_forward_batch_on_every_pass(corpus_seed, n_images, objects,
                                                        dev_fraction, init_seed, eval_seed):
    # captions list every object, so sentence lengths differ within a corpus and the
    # encoding chunks pad differently from the pass batches
    records, store = generate_synthetic_corpus(seed=corpus_seed, n_images=n_images,
                                               label_vocab=DEFAULT_LABELS,
                                               objects_per_image=objects,
                                               dev_fraction=dev_fraction)
    bundle = DataBundle(records, store, Vocabulary.from_records(records), list(DEFAULT_LABELS))
    run_cfg = RunConfig()
    run_cfg.model.objects_per_image = objects
    ckpt = make_initial_checkpoint(run_cfg, bundle, seed=init_seed)
    scored = {"head.match": [], "head.obj_label": [], "head.qa": []}

    def recording(x, params, head):
        logits = train_head_logits(x, params, head)
        scored[head].append(logits.data)
        return logits

    train_head_logits = train.head_logits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train, "head_logits", recording)
        metrics = evaluate_checkpoint(ckpt, bundle, seed=eval_seed)
    expected, reference = reference_evaluation(ckpt, bundle, seed=eval_seed)
    # NaN != NaN, so compare the dicts through their reprs
    assert repr(metrics) == repr(expected)
    for head, logits in scored.items():
        # a pass with no scored row may call the head on zero rows or not at all
        got = np.concatenate([z.reshape(-1) for z in logits] + [np.zeros(0, np.float32)])
        assert got.shape == reference[head].shape, head
        # forward_batch is not bit-stable under a change of batch: the float32
        # GEMV behind each layer-norm mean rounds a batch's last two or three
        # rows differently, so allow 32 float32 epsilons on unit-scale states
        np.testing.assert_allclose(got, reference[head], rtol=1e-6,
                                   atol=32 * np.finfo(np.float32).eps, err_msg=head)


def _counting_cross_stack(monkeypatch):
    """Wrap the cross stack the scorer calls: a list of (keep, rows) per call, and a
    "qa" entry where the QA pass starts."""
    calls = []
    cross_stack, qa_accuracy = train.cross_stack, train._qa_accuracy

    def counting(lang, *args, keep="all", **kwargs):
        calls.append((keep, lang.shape[0]))
        return cross_stack(lang, *args, keep=keep, **kwargs)

    def marked(*args):
        calls.append("qa")
        return qa_accuracy(*args)

    monkeypatch.setattr(train, "cross_stack", counting)
    monkeypatch.setattr(train, "_qa_accuracy", marked)
    return calls


def test_qa_pass_runs_no_row_the_match_pass_scored(monkeypatch):
    records, store = generate_synthetic_corpus(seed=3, n_images=16, label_vocab=DEFAULT_LABELS,
                                               dev_fraction=0.5)
    train_rows = [r for r in records if r.split == "train"]
    dev = [r for r in records if r.split == "dev"]
    # every dev caption, and two questions
    dev = [r for r in dev if not r.is_question] + [r for r in dev if r.is_question][:2]
    bundle = DataBundle(train_rows + dev, store, Vocabulary.from_records(train_rows),
                        list(DEFAULT_LABELS))
    ckpt = make_initial_checkpoint(RunConfig(), bundle, seed=0)
    table = AnswerTable(ckpt.extra["answers"])
    questions = [(tokenize(r.sentence, bundle.vocab, ckpt.config.max_sentence_len).tobytes(),
                  r.image_id) for r in dev
                 if r.is_question and table.lookup(r.answer) != train.OUT_OF_TABLE]

    def match_pass_rows(seed):
        """The (token ids, image id) of each row the match pass feeds, by replaying its draws."""
        rng = np.random.default_rng(seed)
        maker = BatchMaker(dev, store, bundle.vocab, table, MaskingConfig(0.0, 0.0, 0.5),
                           ckpt.config)
        return [(row.token_ids.tobytes(), r.image_id) for i in range(0, len(dev), 32)
                for r, row in zip(dev[i:i + 32], maker.make_batch(dev[i:i + 32], rng).rows)]

    # a pass seed whose match pass feeds both questions with their own image
    seed = next(s for s in range(100) if set(questions) <= set(match_pass_rows(s)))
    assert questions
    calls = _counting_cross_stack(monkeypatch)
    metrics = evaluate_checkpoint(ckpt, bundle, seed=seed)
    assert metrics["qa_n"] == len(questions)
    qa_start = calls.index("qa")
    assert calls[qa_start + 1:] == []
    # the match pass runs each distinct row once, [CLS] only
    match = [n for keep, n in calls[:qa_start] if keep == "cls"]
    assert sum(match) == len(set(match_pass_rows(seed))) < len(dev)
    assert all(keep in ("cls", "vis") for keep, _ in calls[:qa_start])


def test_dev_scorer_runs_a_row_that_repeats_in_its_batch_once(monkeypatch):
    bundle = small_bundle(n_images=8)
    ckpt = make_initial_checkpoint(RunConfig(), bundle, seed=1)
    first, *rest = bundle.split("dev")
    other = next(r for r in rest if (r.sentence, r.image_id) != (first.sentence, first.image_id))
    chunk = [first, other, first, first]
    rows = [plain_row(r.image_id, r.sentence, bundle.store, bundle.vocab, ckpt.config)
            for r in chunk]
    packed = collate(CrossModalBatch(rows), bundle.vocab)
    calls = _counting_cross_stack(monkeypatch)
    cls = train._DevScorer(ckpt.params, ckpt.config).cls_rows(
        [r.image_id for r in chunk], packed).data
    assert calls == [("cls", 2)]
    assert np.array_equal(cls[0], cls[2]) and np.array_equal(cls[0], cls[3])
    np.testing.assert_allclose(cls, forward_batch(packed, ckpt.params, ckpt.config).cls.data,
                               rtol=0, atol=32 * np.finfo(np.float32).eps)


@pytest.mark.parametrize("dev_rows, seed", [(1, 2), (33, 8)])
def test_evaluate_skips_a_label_batch_with_no_masked_object(dev_rows, seed):
    records, store = generate_synthetic_corpus(seed=0, n_images=24, label_vocab=DEFAULT_LABELS,
                                               dev_fraction=0.5)
    train_rows = [r for r in records if r.split == "train"]
    dev = [r for r in records if r.split == "dev"][:dev_rows]
    bundle = DataBundle(train_rows + dev, store, Vocabulary.from_records(train_rows),
                        list(DEFAULT_LABELS))
    ckpt = make_initial_checkpoint(RunConfig(), bundle, seed=0)
    # replay the passes' draws: the label pass's last chunk, one row, flags no object
    rng = np.random.default_rng(seed)
    passes = [MaskingConfig(0.0, 0.15, 0.0)]
    if len({r.image_id for r in dev}) >= 2:
        passes.insert(0, MaskingConfig(0.0, 0.0, 0.5))
    for masking in passes:
        maker = BatchMaker(dev, store, bundle.vocab, AnswerTable(ckpt.extra["answers"]),
                           masking, ckpt.config)
        flagged = [int(maker.make_row(r, rng).obj_mask_flags.sum()) for r in dev]
    assert len(dev) % 32 == 1 and flagged[-1] == 0

    metrics = evaluate_checkpoint(ckpt, bundle, seed=seed)
    assert metrics["masked_label_n"] == sum(flagged)
    assert (sum(flagged) == 0) == np.isnan(metrics["masked_label_accuracy"])
    assert repr(metrics) == repr(reference_evaluation(ckpt, bundle, seed=seed)[0])


@pytest.mark.parametrize("run, written", [
    ("pretrain", ["checkpoint-epoch-1.ckpt", "checkpoint-epoch-2.ckpt",
                  "checkpoint-final.ckpt", "metrics.jsonl"]),
    ("pretrain-final-only", ["checkpoint-final.ckpt", "metrics.jsonl"]),
    ("qa", ["checkpoint-final.ckpt", "metrics.jsonl"]),
    ("pairwise", ["checkpoint-final.ckpt", "metrics.jsonl"]),
])
def test_each_run_writes_its_metrics_and_checkpoints_and_nothing_else(tmp_path, run, written):
    bundle = small_bundle(pairs=32)
    out = tmp_path / "run"
    if run == "pretrain-final-only":
        cfg = tiny_run_cfg(epochs=2)
        cfg.schedule.checkpoint_every_epoch = False
        result = run_pretraining(bundle, cfg, seed=3, out_dir=out)
    else:
        result = _seeded_run(run, bundle, 3, out)
    assert sorted(os.listdir(out)) == written
    assert result.metrics_path == os.path.join(out, "metrics.jsonl")
    assert result.final_checkpoint == os.path.join(out, "checkpoint-final.ckpt")


def test_finetune_qa_runs_and_reports(tmp_path):
    bundle = small_bundle(n_images=32)
    ckpt = make_initial_checkpoint(tiny_run_cfg(), bundle, seed=8)
    cfg = tiny_run_cfg()
    cfg.finetune = FinetuneConfig(lr=1e-3, batch_size=16, epochs=1)
    result = run_finetune_qa(ckpt, bundle, cfg, seed=8, out_dir=tmp_path / "ft")
    assert os.path.exists(result.final_checkpoint)
    assert 0.0 <= result.dev_accuracy <= 1.0
    loaded = load_checkpoint(result.final_checkpoint)
    answers = loaded.extra["answers"]
    assert answers
    assert loaded.config.num_answers == len(answers)


def test_finetune_qa_does_not_mutate_source_checkpoint(tmp_path):
    bundle = small_bundle(n_images=24)
    ckpt = make_initial_checkpoint(tiny_run_cfg(), bundle, seed=9)
    before = {k: p.data.copy() for k, p in ckpt.params.items()}
    cfg = tiny_run_cfg()
    cfg.finetune = FinetuneConfig(lr=1e-3, batch_size=16, epochs=1)
    run_finetune_qa(ckpt, bundle, cfg, seed=9, out_dir=tmp_path / "ft")
    for name, data in before.items():
        assert np.array_equal(ckpt.params[name].data, data)


def test_finetune_pairwise_needs_pair_corpus(tmp_path):
    bundle = small_bundle(n_images=24, pairs=0)
    ckpt = make_initial_checkpoint(tiny_run_cfg(), bundle, seed=10)
    cfg = tiny_run_cfg()
    with pytest.raises(ValueError, match="two image ids"):
        run_finetune_pairwise(ckpt, bundle, cfg, seed=10, out_dir=tmp_path / "ft")
    # a run that fails its checks before training creates no output directory
    assert not (tmp_path / "ft").exists()


def test_finetune_pairwise_shares_encoder_between_passes(tmp_path):
    # gradients reach the encoder from both images: zeroing one image's
    # objects still leaves the shared parameters with gradient from the other
    bundle = small_bundle(n_images=24, pairs=16)
    ckpt = make_initial_checkpoint(tiny_run_cfg(), bundle, seed=11)
    from crossmodal.params import init_head_params, PAIRWISE_HEAD
    from crossmodal.data import CrossModalBatch, collate
    from crossmodal.train import _pair_rows
    from crossmodal.heads import pairwise_bce

    params = ckpt.params
    params.update(init_head_params(ckpt.config, np.random.default_rng(0), PAIRWISE_HEAD))
    pairs = bundle.pairs[:4]
    rows0, rows1, labels = _pair_rows(pairs, bundle.store, bundle.vocab, ckpt.config)
    p0 = collate(CrossModalBatch(rows0), bundle.vocab)
    p1 = collate(CrossModalBatch(rows1), bundle.vocab)

    def grads_with(zero_first):
        zero_grads(params)
        if zero_first:
            saved = p0.roi_features.copy()
            p0.roi_features[:] = 0.0
        with Tape():
            out0 = forward_batch(p0, params, ckpt.config)
            out1 = forward_batch(p1, params, ckpt.config)
            loss = pairwise_bce(pairwise_logit(out0.cls, out1.cls, params,
                                               ckpt.config.ln_eps), labels)
            backward(loss)
        if zero_first:
            p0.roi_features[:] = saved
        return {k: p.grad.copy() for k, p in params.items()}

    g_full = grads_with(False)
    g_zeroed = grads_with(True)
    name = "cross.0.l2r.wv"
    assert np.abs(g_full[name]).sum() > 0
    assert np.abs(g_zeroed[name]).sum() > 0
    assert not np.allclose(g_full[name], g_zeroed[name])


def test_finetune_pairwise_runs(tmp_path):
    bundle = small_bundle(n_images=24, pairs=32)
    ckpt = make_initial_checkpoint(tiny_run_cfg(), bundle, seed=12)
    cfg = tiny_run_cfg()
    cfg.finetune = FinetuneConfig(lr=1e-3, batch_size=16, epochs=1)
    result = run_finetune_pairwise(ckpt, bundle, cfg, seed=12, out_dir=tmp_path / "ft")
    assert os.path.exists(result.final_checkpoint)
    loaded = load_checkpoint(result.final_checkpoint)
    assert "pair.w0" in loaded.params
    assert set(loaded.heads) == {"pretrain", "pairwise"}


def test_dump_attention_structure(tmp_path):
    bundle = small_bundle(n_images=16)
    ckpt = make_initial_checkpoint(tiny_run_cfg(), bundle, seed=13)
    out_path = tmp_path / "attn.json"
    dump = dump_attention(ckpt, bundle, index=0, out_path=out_path)
    cfg = ckpt.config
    assert len(dump["groups"]) == (cfg.n_lang_layers + cfg.n_vis_layers
                                   + 4 * cfg.n_cross_layers)
    directions = {g["direction"] for g in dump["groups"]}
    assert directions == {"self-L", "self-R", "cross-L->R", "cross-R->L"}
    for group in dump["groups"]:
        for head in group["heads"]:
            matrix = np.asarray(head)
            assert matrix.shape == (len(group["query_labels"]), len(group["context_labels"]))
            assert np.abs(matrix.sum(axis=1) - 1.0).max() < 1e-6
    l2r = next(g for g in dump["groups"] if g["direction"] == "cross-L->R")
    assert len(l2r["query_labels"]) == len(dump["tokens"])
    assert len(l2r["context_labels"]) == cfg.objects_per_image
    with open(out_path) as fh:
        assert json.load(fh)["image_id"] == dump["image_id"]


def test_pretraining_step_records_one_attention_per_block():
    # 16 records per attention block fold into one; the parent tape held 380
    bundle = small_bundle()
    run_cfg = RunConfig()
    ckpt = make_initial_checkpoint(run_cfg, bundle, seed=0)
    cfg, params = ckpt.config, ckpt.params
    train = bundle.split("train")
    maker = BatchMaker(train, bundle.store, bundle.vocab, AnswerTable(ckpt.extra["answers"]),
                       run_cfg.masking, cfg)
    rng = np.random.default_rng(0)
    packed = collate(maker.make_batch(train[:32], rng), bundle.vocab)
    zero_grads(params)
    with Tape() as tape:
        out = forward_batch(packed, params, cfg, Runtime(training=True, rng=rng))
        losses = pretrain_losses(packed, out, params, qa_enabled=True)
        records = list(tape.records)
        backward(losses.total)
    assert losses.qa_count > 0
    ops = Counter(rule.__qualname__.split(".")[0] for _, _, rule in records)
    blocks = cfg.n_lang_layers + cfg.n_vis_layers + 4 * cfg.n_cross_layers
    assert blocks == 13
    assert ops["attention"] == blocks
    assert ops["matmul"] == 0
    assert len(records) < 200


def test_encoder_records_one_residual_per_attention_and_one_per_feed_forward():
    # the output projection and each feed-forward residual tail sit inside
    # these records, so no sub-layer output outlives its forward
    bundle = small_bundle()
    ckpt = make_initial_checkpoint(RunConfig(), bundle, seed=0)
    cfg, params = ckpt.config, ckpt.params
    maker = BatchMaker(bundle.split("train"), bundle.store, bundle.vocab,
                       AnswerTable(ckpt.extra["answers"]), MaskingConfig(), cfg)
    packed = collate(maker.make_batch(bundle.split("train")[:4], np.random.default_rng(0)),
                     bundle.vocab)
    with Tape() as embeddings:
        embed_words(packed.token_ids, params, cfg)
        embed_objects(packed.roi_features, packed.boxes, packed.obj_mask_flags, params, cfg)
    with Tape() as tape:
        forward_batch(packed, params, cfg, Runtime(training=True, rng=np.random.default_rng(1)))
    ops = Counter(rule.__qualname__.split(".")[0] for _, _, rule in tape.records)
    blocks = cfg.n_lang_layers + cfg.n_vis_layers + 4 * cfg.n_cross_layers
    assert ops["attention"] == ops["residual_layer_norm"] == blocks
    assert ops["feed_forward"] == cfg.n_lang_layers + cfg.n_vis_layers + 2 * cfg.n_cross_layers
    assert ops["getitem"] == 1  # the [CLS] row
    assert len(tape) == len(embeddings) + 35 + 1


def _pretraining_step_setup(seed=0, batch=8):
    """Desk-model parameters from a fresh checkpoint and a step loss over train rows."""
    bundle = small_bundle()
    run_cfg = RunConfig()
    ckpt = make_initial_checkpoint(run_cfg, bundle, seed=seed)
    cfg = ckpt.config
    train = bundle.split("train")[:batch]
    maker = BatchMaker(train, bundle.store, bundle.vocab, AnswerTable(ckpt.extra["answers"]),
                       run_cfg.masking, cfg)

    def step_loss(params, chunk, rng):
        packed = collate(maker.make_batch(chunk, rng), bundle.vocab)
        out = forward_batch(packed, params, cfg, Runtime(training=True, rng=rng))
        return pretrain_losses(packed, out, params, qa_enabled=True).total

    return train, ckpt.params, step_loss


def test_backward_empties_the_tape_and_leaves_gradients_on_leaves_only():
    train, params, step_loss = _pretraining_step_setup(seed=3)
    zero_grads(params)
    with Tape() as tape:
        loss = step_loss(params, train, np.random.default_rng(4))
        outputs = [out for out, _, _ in tape.records]
        backward(loss)
    assert len(tape) == 0
    assert all(p.grad is not None and p.grad.shape == p.data.shape for p in params.values())
    assert np.abs(params["lang.0.attn.wo"].grad).sum() > 0
    assert np.abs(params["cross.1.ff_r.w1"].grad).sum() > 0
    assert loss in outputs
    assert all(out.grad is None for out in outputs)


def test_backward_frees_as_it_sweeps():
    # each record and its output's gradient go as soon as the sweep has run
    # the record's rule, so backward adds little to what the tape holds
    # (keeping them all to the end of the sweep peaked at 1.43x)
    train, params, step_loss = _pretraining_step_setup(seed=0, batch=8)
    zero_grads(params)
    tracemalloc.start()
    try:
        with Tape():
            loss = step_loss(params, train, np.random.default_rng(2))
            at_start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * at_start, (at_start, peak)


def _assert_one_buffer(arrays):
    """The arrays are consecutive views of one 1-D buffer, in order."""
    base = arrays[0].base
    assert base is not None and base.ndim == 1
    assert base.size == sum(a.size for a in arrays)
    start = base.__array_interface__["data"][0]
    offset = 0
    for a in arrays:
        assert a.base is base
        assert a.__array_interface__["data"][0] == start + offset * base.itemsize
        offset += a.size


def test_fit_step_leaves_parameters_gradients_and_moments_in_one_buffer_each(tmp_path):
    train, params, step_loss = _pretraining_step_setup()
    # separately allocated arrays, as a loaded checkpoint gives
    params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
    opt = OptimizerState({k: np.zeros_like(p.data) for k, p in params.items()},
                         {k: np.zeros_like(p.data) for k, p in params.items()},
                         peak_lr=1e-3, warmup_fraction=0.0, total_steps=1)
    rng = np.random.default_rng(0)
    cfg = make_initial_checkpoint(RunConfig(), small_bundle(), seed=0).config
    history = _fit(train, lambda chunk: (step_loss(params, chunk, rng), {}), params, rng,
                   tmp_path, lambda _: Checkpoint(cfg, (PRETRAIN_HEADS,), params), opt,
                   batch_size=len(train), clip_norm=1.0).history
    assert len(history) == 1 and history[0]["grad_norm"] > 0
    _assert_one_buffer([p.data for p in params.values()])
    _assert_one_buffer([p.grad for p in params.values()])
    _assert_one_buffer([opt.m[k] for k in params])
    _assert_one_buffer([opt.v[k] for k in params])


def test_fit_continued_from_an_epoch_checkpoint_matches_the_uninterrupted_run(tmp_path):
    train_rows, initial, step_loss = _pretraining_step_setup(seed=5, batch=12)
    cfg = make_initial_checkpoint(RunConfig(), small_bundle(), seed=5).config

    def fit(params, rng, opt, out_dir):
        def loss_and_fields(chunk):
            loss = step_loss(params, chunk, rng)
            return loss, {"total": loss.item()}
        return _fit(train_rows, loss_and_fields, params, rng, out_dir,
                    lambda epoch: Checkpoint(cfg, (PRETRAIN_HEADS,), params,
                                             extra={"epoch": epoch}),
                    opt, batch_size=4, clip_norm=1.0, save_epochs=True)

    params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in initial.items()}
    full = fit(params, np.random.default_rng(0), OptimizerState.init(params, 1e-3, 0.1, 9),
               tmp_path / "full")
    # 3 epochs of 3 steps; the continuation starts after the first epoch and,
    # like a resumed run, drops the metrics lines it writes again
    epoch1 = load_checkpoint(tmp_path / "full" / "checkpoint-epoch-1.ckpt")
    assert epoch1.opt_state.step == 3
    continued_dir = tmp_path / "continued"
    continued_dir.mkdir()
    (continued_dir / "metrics.jsonl").write_text(open(full.metrics_path).read())
    continued = fit(epoch1.params, train._restore_rng(epoch1.rng_state), epoch1.opt_state,
                    continued_dir)
    assert [line["step"] for line in continued.history] == list(range(3, 9))
    assert strip_wall_time(continued.history) == strip_wall_time(full.history[3:])
    assert (strip_wall_time(read_metrics(continued.metrics_path))
            == strip_wall_time(read_metrics(full.metrics_path)))
    for name, p in params.items():
        assert np.array_equal(epoch1.params[name].data, p.data), name
    with open(full.final_checkpoint, "rb") as a, open(continued.final_checkpoint, "rb") as b:
        assert a.read() == b.read()


def test_no_backward_rule_writes_into_its_gradient():
    # an intermediate takes its first gradient by reference, so the array a
    # rule receives may be another tensor's gradient: rules must only read it
    train, params, step_loss = _pretraining_step_setup(seed=1)

    def read_only(rule):
        def wrapped(g):
            g = np.array(g)
            g.flags.writeable = False
            return rule(g)
        return wrapped

    grads = []
    for guard in (False, True):
        zero_grads(params)
        with Tape() as tape:
            loss = step_loss(params, train, np.random.default_rng(2))
            if guard:
                tape.records[:] = [(out, inputs, read_only(rule))
                                   for out, inputs, rule in tape.records]
            backward(loss)
        grads.append({k: p.grad.copy() for k, p in params.items()})
    for k in params:
        assert np.array_equal(grads[0][k], grads[1][k]), k


def test_resume_under_another_batch_size_with_the_same_step_count_is_refused(tmp_path):
    bundle = small_bundle()
    n = len(bundle.split("train"))
    run_pretraining(bundle, tiny_run_cfg(epochs=2, batch=n), seed=6, out_dir=tmp_path / "run")
    # one epoch of two steps: the same total, but the checkpoint's step 1 is half an epoch
    with pytest.raises(ValueError, match="not a whole epoch"):
        run_pretraining(bundle, tiny_run_cfg(epochs=1, batch=(n + 1) // 2), seed=6,
                        out_dir=tmp_path / "resumed",
                        resume=str(tmp_path / "run" / "checkpoint-epoch-1.ckpt"))
    assert not os.path.exists(tmp_path / "resumed")


def test_resume_after_a_crash_writes_each_step_once(tmp_path):
    bundle = small_bundle()
    full = run_pretraining(bundle, tiny_run_cfg(epochs=2), seed=6, out_dir=tmp_path / "full")
    crashed = tmp_path / "crashed"
    run_pretraining(bundle, tiny_run_cfg(epochs=2), seed=6, out_dir=crashed)
    steps_per_epoch = len(full.history) // 2
    # the crash came in epoch 1, after checkpoint-epoch-1 and two of its
    # steps, the second of them torn mid-line
    metrics = crashed / "metrics.jsonl"
    lines = metrics.read_text().splitlines(keepends=True)[:steps_per_epoch + 1]
    lines.append(json.dumps({"step": steps_per_epoch, "total": -1.0}) + "\n")
    lines.append(lines[-2][:20])
    metrics.write_text("".join(lines))
    run_pretraining(bundle, tiny_run_cfg(epochs=2), seed=6, out_dir=crashed,
                    resume=str(crashed / "checkpoint-epoch-1.ckpt"))
    resumed = read_metrics(metrics)
    assert [line["step"] for line in resumed] == list(range(2 * steps_per_epoch))
    assert strip_wall_time(resumed) == strip_wall_time(read_metrics(full.metrics_path))
