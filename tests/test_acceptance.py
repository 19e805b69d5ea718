"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The later criteria
train real models on synthetic data and take minutes on one CPU core;
each stays inside its stated runtime budget.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from crossmodal.checkpoint import load_checkpoint
from crossmodal.config import (
    FinetuneConfig,
    MaskingConfig,
    ModelConfig,
    RunConfig,
    ScheduleConfig,
)
from crossmodal.data import (
    DEFAULT_LABELS,
    BatchMaker,
    CrossModalBatch,
    Vocabulary,
    build_answer_table,
    collate,
    generate_pairwise_corpus,
    generate_synthetic_corpus,
)
from crossmodal.encoders import Runtime, forward_batch
from crossmodal.heads import pairwise_bce, pairwise_forward, pairwise_logit, pretrain_losses
from crossmodal.optim import OptimizerState, adam_step, clip_gradients, lr_at_step
from crossmodal.params import PAIRWISE_HEAD, init_head_params, init_params
from crossmodal.tensor import (
    Tape,
    Tensor,
    backward,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    matmul,
    softmax,
    tensor,
    tsum,
    using_dtype,
    zero_grads,
)
from crossmodal.train import (
    DataBundle,
    evaluate_checkpoint,
    make_initial_checkpoint,
    run_finetune_qa,
    run_pretraining,
)

from helpers import assert_grads_close, forward_one, numeric_grad


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def make_bundle(seed, n_images, pairs=0, **kw):
    records, store = generate_synthetic_corpus(seed=seed, n_images=n_images,
                                               label_vocab=DEFAULT_LABELS, **kw)
    vocab = Vocabulary.from_records([r for r in records if r.split == "train"])
    pair_records = None
    if pairs:
        pair_records = generate_pairwise_corpus(store, DEFAULT_LABELS, pairs, seed=seed + 1)
    return DataBundle(records, store, vocab, list(DEFAULT_LABELS), pair_records)


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_1_gradient_suite():
    t0 = time.time()
    failures = []

    def check(name, build_loss, leaves, rtol=1e-4):
        for leaf in leaves.values():
            leaf.grad = None
        with Tape():
            backward(build_loss())
        for pname, leaf in leaves.items():
            analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            numeric = numeric_grad(lambda: float(build_loss().data), leaf.data)
            try:
                assert_grads_close(analytic, numeric, rtol=rtol, name=f"{name}.{pname}")
            except AssertionError as exc:
                failures.append(str(exc))

    with using_dtype(np.float64):
        rng = np.random.default_rng(0)
        f64 = lambda *s: Tensor(rng.normal(size=s), requires_grad=True)

        a, b = f64(3, 4), f64(4, 2)
        check("matmul", lambda: tsum(matmul(a, b) * matmul(a, b)), {"a": a, "b": b})

        x, g, bb = f64(8), f64(8), f64(8)
        w = rng.normal(size=8)
        check("layer_norm", lambda: tsum(layer_norm(x, g, bb) * tensor(w)),
              {"x": x, "g": g, "b": bb})

        s = f64(3, 5)
        ws = rng.normal(size=(3, 5))
        check("softmax", lambda: tsum(softmax(s) * tensor(ws)), {"s": s})

        gx = Tensor(np.array([-3.0, -1.0, 0.0, 1.0, 3.0]), requires_grad=True)
        check("gelu", lambda: tsum(gelu(gx) * gelu(gx)), {"x": gx})

        table = f64(6, 3)
        ids = np.array([0, 5, 5, 2])
        we = rng.normal(size=(4, 3))
        check("embedding_lookup",
              lambda: tsum(embedding_lookup(table, ids) * tensor(we)),
              {"table": table})

    # end-to-end pre-training loss on a tiny model, 10 sampled parameters
    with using_dtype(np.float64):
        records, store = generate_synthetic_corpus(
            seed=1, n_images=6, label_vocab=DEFAULT_LABELS[:6],
            feat_dim=8, objects_per_image=4, dev_fraction=0.0)
        vocab = Vocabulary.from_records(records)
        table = build_answer_table(records, 1.0)
        cfg = ModelConfig(n_lang_layers=1, n_cross_layers=1, n_vis_layers=1,
                          hidden_size=16, num_heads=2, feat_dim=8,
                          vocab_size=len(vocab), num_labels=6, num_answers=len(table),
                          max_sentence_len=12, objects_per_image=4,
                          dropout=0.0).validate()
        params = init_params(cfg, np.random.default_rng(2))
        maker = BatchMaker(records, store, vocab, table, MaskingConfig(), cfg)
        packed = collate(maker.make_batch(records[:3], np.random.default_rng(3)), vocab)

        def full_loss():
            out = forward_batch(packed, params, cfg)
            return pretrain_losses(packed, out, params, qa_enabled=True).total

        zero_grads(params)
        with Tape():
            backward(full_loss())
        analytic = {k: p.grad.copy() for k, p in params.items()}
        rng = np.random.default_rng(4)
        names = [n for n in params if params[n].data.size > 0]
        h = 1e-5
        sampled = 0
        while sampled < 10:
            name = names[rng.integers(0, len(names))]
            p = params[name]
            idx = np.unravel_index(rng.integers(0, p.data.size), p.data.shape)
            old = p.data[idx]
            p.data[idx] = old + h
            fp = float(full_loss().data)
            p.data[idx] = old - h
            fm = float(full_loss().data)
            p.data[idx] = old
            num = (fp - fm) / (2 * h)
            ana = analytic[name][idx]
            if abs(ana) <= 1e-6:
                continue
            rel = abs(num - ana) / max(abs(num), abs(ana))
            if rel >= 1e-3:
                failures.append(f"end-to-end {name}{list(idx)}: rel {rel:.2e}")
            sampled += 1

    elapsed = time.time() - t0
    report(1, "gradient suite", not failures and elapsed < 120,
           f"({sampled} end-to-end probes, {elapsed:.0f}s)"
           + ("; " + "; ".join(failures[:3]) if failures else ""))


# ---------------------------------------------------------------------------
# 2. architecture invariants


def test_criterion_2_architecture_invariants():
    t0 = time.time()
    cfg = ModelConfig(vocab_size=40, num_labels=16, num_answers=8).validate()
    assert (cfg.n_lang_layers, cfg.n_cross_layers, cfg.n_vis_layers) == (3, 2, 2)
    assert cfg.hidden_size == 64 and cfg.num_heads == 4
    ok = True
    detail = []

    # shape contract and attention-distribution invariants on a padded batch
    from crossmodal.data import BatchRow, ObjectSet, TokenSequence

    def random_row(rng, n):
        ids = np.concatenate([[2], rng.integers(5, cfg.vocab_size, size=n - 2), [3]])
        feats = rng.normal(size=(8, 32)).astype(np.float32)
        x0 = rng.uniform(0, 0.6, size=8)
        y0 = rng.uniform(0, 0.6, size=8)
        boxes = np.stack([x0, y0, x0 + 0.2, y0 + 0.2], axis=1).astype(np.float32)
        return BatchRow(TokenSequence(ids),
                        ObjectSet(feats, boxes, rng.integers(0, 16, size=8)),
                        True, -1, False)

    rng = np.random.default_rng(0)
    vocab = Vocabulary([f"w{i}" for i in range(cfg.vocab_size - 5)])
    params = init_params(cfg, rng)
    rows = [random_row(rng, n) for n in (5, 9)]
    packed = collate(CrossModalBatch(rows), vocab)
    out = forward_batch(packed, params, cfg)
    if out.lang.shape != (2, 9, 64) or out.vis.shape != (2, 8, 64) or out.cls.shape != (2, 64):
        ok = False
        detail.append("shape contract violated")
    if len(out.attention) != cfg.n_lang_layers + cfg.n_vis_layers + 4 * cfg.n_cross_layers:
        ok = False
        detail.append("attention group count")
    pad_cols = ~packed.token_mask
    for rec in out.attention:
        rows_ = rec.weights.reshape(-1, rec.weights.shape[-1])
        if np.abs(rows_.sum(axis=-1) - 1.0).max() >= 1e-6:
            ok = False
            detail.append(f"rows of {rec.encoder}.{rec.layer} do not sum to 1")
            break
        if rec.direction in ("self-L", "cross-R->L"):
            if rec.weights[0][:, :, pad_cols[0]].max() != 0.0:
                ok = False
                detail.append("padded positions got weight")
                break

    # single-pair contract
    lang, vis, cls, _ = forward_one(rows[0].tokens, rows[0].objects, params, cfg)
    if lang.shape != (5, 64) or vis.shape != (8, 64) or cls.shape != (64,):
        ok = False
        detail.append("single-pair shapes")

    # 1000-seed NaN-free forward sweep
    bad = 0
    for seed in range(1000):
        p = init_params(cfg, np.random.default_rng(seed))
        r = np.random.default_rng(10_000 + seed)
        row = random_row(r, int(r.integers(3, 13)))
        lang, vis, cls, _ = forward_one(row.tokens, row.objects, p, cfg)
        if not (np.isfinite(lang).all() and np.isfinite(vis).all() and np.isfinite(cls).all()):
            bad += 1
    if bad:
        ok = False
        detail.append(f"{bad} non-finite forwards")
    elapsed = time.time() - t0
    if elapsed >= 180:
        ok = False
        detail.append(f"too slow: {elapsed:.0f}s")
    report(2, "architecture invariants", ok, f"(1000 seeds, {elapsed:.0f}s) " + "; ".join(detail))


# ---------------------------------------------------------------------------
# 3. masking statistics


def test_criterion_3_masking_statistics():
    t0 = time.time()
    records, store = generate_synthetic_corpus(seed=5, n_images=64,
                                               label_vocab=DEFAULT_LABELS)
    vocab = Vocabulary.from_records([r for r in records if r.split == "train"])
    table = build_answer_table([r for r in records if r.split == "train"], 1.0)
    cfg = ModelConfig(vocab_size=len(vocab), num_labels=16, num_answers=len(table)).validate()
    maker = BatchMaker(records, store, vocab, table, MaskingConfig(), cfg)
    rng = np.random.default_rng(6)

    eligible = masked = objects = objects_masked = mismatched = rows = 0
    i = 0
    while eligible < 100_000 or rows < 10_000:
        row = maker.make_row(records[i % len(records)], rng)
        ids = row.tokens.token_ids
        slots = row.tokens.mlm_targets >= 0
        eligible += int((ids >= vocab.n_special).sum())
        eligible += int(((ids < vocab.n_special) & slots).sum())  # [MASK]-resolved slots
        masked += int(slots.sum())
        objects += row.objects.m
        objects_masked += int(row.objects.mask_flags.sum())
        mismatched += int(not row.match_label)
        rows += 1
        i += 1

    word_rate = masked / eligible
    mis_rate = mismatched / rows
    obj_rate = objects_masked / objects
    sigma_obj = math.sqrt(0.15 * 0.85 / objects)
    ok = (0.133 <= word_rate <= 0.167
          and 0.485 <= mis_rate <= 0.515
          and abs(obj_rate - 0.15) <= 3 * sigma_obj)
    elapsed = time.time() - t0
    report(3, "masking statistics", ok and elapsed < 60,
           f"(word {word_rate:.4f}, mismatch {mis_rate:.4f}, object {obj_rate:.4f}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 4. loss algebra


def test_criterion_4_loss_algebra():
    records, store = generate_synthetic_corpus(seed=7, n_images=24,
                                               label_vocab=DEFAULT_LABELS)
    vocab = Vocabulary.from_records([r for r in records if r.split == "train"])
    table = build_answer_table([r for r in records if r.split == "train"], 1.0)
    cfg = ModelConfig(vocab_size=len(vocab), num_labels=16, num_answers=len(table),
                      dropout=0.0).validate()
    params = init_params(cfg, np.random.default_rng(8))
    maker = BatchMaker(records, store, vocab, table, MaskingConfig(), cfg)
    rng = np.random.default_rng(9)

    ok = True
    worst = 0.0
    for _ in range(100):
        idx = rng.choice(len(records), size=6, replace=False)
        packed = collate(maker.make_batch([records[j] for j in idx], rng), vocab)
        out = forward_batch(packed, params, cfg)
        bundle = pretrain_losses(packed, out, params, qa_enabled=True)
        parts = (bundle.mlm.item() + bundle.obj_feat.item() + bundle.obj_label.item()
                 + bundle.match.item() + bundle.qa.item())
        worst = max(worst, abs(bundle.total.item() - parts))
        if worst >= 1e-6:
            ok = False
            break

    # exact-zero QA gradients: all-mismatched batch, and phase-1 gating
    packed = collate(maker.make_batch(records[:6], rng), vocab)
    packed.match_labels[:] = 0
    packed.answer_indices[:] = -1
    for qa_enabled in (True, False):
        zero_grads(params)
        with Tape():
            out = forward_batch(packed, params, cfg)
            backward(pretrain_losses(packed, out, params, qa_enabled=qa_enabled).total)
        if np.abs(params["head.qa.w"].grad).max() != 0.0 or np.abs(params["head.qa.b"].grad).max() != 0.0:
            ok = False

    packed2 = collate(maker.make_batch(records[6:12], rng), vocab)
    zero_grads(params)
    with Tape():
        out = forward_batch(packed2, params, cfg)
        backward(pretrain_losses(packed2, out, params, qa_enabled=False).total)
    if np.abs(params["head.qa.w"].grad).max() != 0.0:
        ok = False
    report(4, "loss algebra", ok, f"(100 batches, worst |total-sum| {worst:.2e})")


# ---------------------------------------------------------------------------
# 5. overfit smoke


def test_criterion_5_overfit_smoke():
    t0 = time.time()
    records, store = generate_synthetic_corpus(seed=0, n_images=8,
                                               label_vocab=DEFAULT_LABELS,
                                               dev_fraction=0.0)
    subset = [records[i * 5 + (i % 5)] for i in range(8)]  # 8 pairs over 8 images
    vocab = Vocabulary.from_records(records)
    table = build_answer_table(records, 1.0)
    cfg = ModelConfig(vocab_size=len(vocab), num_labels=16,
                      num_answers=len(table)).validate()
    maker = BatchMaker(subset, store, vocab, table, MaskingConfig(), cfg)
    rng = np.random.default_rng(1)
    packed = collate(maker.make_batch(subset, rng), vocab)  # one fixed masked batch
    params = init_params(cfg, np.random.default_rng(2))
    peak = 3e-3
    opt = OptimizerState.init(params, peak, 0.05, 300)
    rt = Runtime(training=True, rng=rng)

    initial = None
    final = None
    hit_step = None
    for step in range(300):
        zero_grads(params)
        with Tape():
            out = forward_batch(packed, params, cfg, rt)
            bundle = pretrain_losses(packed, out, params, qa_enabled=True)
            backward(bundle.total)
        clip_gradients(params, 5.0)
        adam_step(params, {k: p.grad for k, p in params.items()}, opt,
                  lr_at_step(step, peak, 0.05, 300))
        total = bundle.total.item()
        if initial is None:
            initial = total
        if hit_step is None and total < 0.1 * initial:
            hit_step = step
        final = total
    elapsed = time.time() - t0
    ok = hit_step is not None and elapsed < 300
    report(5, "overfit smoke", ok,
           f"(initial {initial:.2f}, final {final:.4f}, <10% at step {hit_step}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 6 and 7 share one pre-training run per seed


def desk_schedule(epochs=4, batch=4, peak=1e-3):
    return ScheduleConfig(epochs=epochs, batch_size=batch, peak_lr=peak,
                          qa_start_fraction=0.5, checkpoint_every_epoch=False)


@pytest.fixture(scope="module")
def learnability_run(tmp_path_factory):
    bundle = make_bundle(seed=7, n_images=512, captions_per_image=6,
                         questions_per_image=6)
    cfg = RunConfig()
    cfg.schedule = desk_schedule()
    out = tmp_path_factory.mktemp("learnability")
    t0 = time.time()
    result = run_pretraining(bundle, cfg, seed=11, out_dir=out)
    elapsed = time.time() - t0
    return bundle, cfg, result, elapsed


def test_criterion_6_synthetic_learnability(learnability_run):
    bundle, cfg, result, train_time = learnability_run
    t0 = time.time()
    ckpt = load_checkpoint(result.final_checkpoint)
    metrics = evaluate_checkpoint(ckpt, bundle, seed=3)
    elapsed = train_time + (time.time() - t0)
    match_ok = metrics["match_accuracy"] >= 0.90
    label_ok = metrics["masked_label_accuracy"] >= 5 * metrics["label_chance"]
    ok = match_ok and label_ok and elapsed < 900
    report(6, "synthetic learnability", ok,
           f"(match {metrics['match_accuracy']:.3f}, "
           f"label {metrics['masked_label_accuracy']:.3f} vs chance {metrics['label_chance']:.3f}, "
           f"{elapsed:.0f}s)")


def test_criterion_7_pretraining_helps(learnability_run, tmp_path):
    bundle, cfg, result, _ = learnability_run
    t0 = time.time()
    ft_cfg = RunConfig()
    ft_cfg.schedule = cfg.schedule
    ft_cfg.finetune = FinetuneConfig(lr=5e-4, batch_size=16, epochs=2)
    gaps = []
    for seed in (21, 22, 23):
        pre = load_checkpoint(result.final_checkpoint)
        pre_res = run_finetune_qa(pre, bundle, ft_cfg, seed=seed,
                                  out_dir=tmp_path / f"pre{seed}")
        scratch = make_initial_checkpoint(ft_cfg, bundle, seed=seed)
        scr_res = run_finetune_qa(scratch, bundle, ft_cfg, seed=seed,
                                  out_dir=tmp_path / f"scr{seed}")
        gaps.append(pre_res.dev_accuracy - scr_res.dev_accuracy)
    mean_gap = float(np.mean(gaps))
    elapsed = time.time() - t0
    ok = mean_gap >= 0.05 and elapsed < 1800
    report(7, "pre-training helps", ok,
           f"(gaps {[round(g, 3) for g in gaps]}, mean {mean_gap:.3f}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 8. pairwise head


def test_criterion_8_pairwise_head(tmp_path):
    # hand-computed d=2 walkthrough
    params = {
        "pair.w0": Tensor(np.array([[0.5, -0.25], [0.0, 1.0], [1.0, 0.5], [-0.5, 0.25]]),
                          requires_grad=True),
        "pair.b0": Tensor(np.array([0.1, -0.2]), requires_grad=True),
        "pair.ln.g": Tensor(np.array([1.5, 0.5]), requires_grad=True),
        "pair.ln.b": Tensor(np.array([0.05, -0.05]), requires_grad=True),
        "pair.w1": Tensor(np.array([[2.0], [-1.0]]), requires_grad=True),
        "pair.b1": Tensor(np.array([0.3]), requires_grad=True),
    }
    x0 = np.array([0.2, -0.4])
    x1 = np.array([0.6, 0.1])
    joint = np.concatenate([x0, x1])
    z0 = joint @ params["pair.w0"].data + params["pair.b0"].data
    c = math.sqrt(2.0 / math.pi)
    a = 0.5 * z0 * (1.0 + np.tanh(c * (z0 + 0.044715 * z0**3)))
    z1 = (a - a.mean()) / np.sqrt(a.var() + 1e-12) * params["pair.ln.g"].data + params["pair.ln.b"].data
    expected = 1.0 / (1.0 + math.exp(-(float(z1 @ params["pair.w1"].data[:, 0]) + 0.3)))
    prob = pairwise_forward(tensor(x0[None]), tensor(x1[None]), params).data[0]
    walkthrough_ok = abs(prob - expected) < 1e-6

    # pairwise overfit: 64 pairs, BCE < 0.05 within 500 steps
    t0 = time.time()
    bundle = make_bundle(seed=9, n_images=32, pairs=64, dev_fraction=0.0)
    run_cfg = RunConfig()
    ckpt = make_initial_checkpoint(run_cfg, bundle, seed=10)
    cfg = ckpt.config
    model_params = ckpt.params
    model_params.update(init_head_params(cfg, np.random.default_rng(11), PAIRWISE_HEAD))
    from crossmodal.train import _pair_rows

    rows0, rows1, labels = _pair_rows(bundle.pairs, bundle.store, bundle.vocab, cfg)
    p0 = collate(CrossModalBatch(rows0), bundle.vocab)
    p1 = collate(CrossModalBatch(rows1), bundle.vocab)
    peak = 3e-3
    opt = OptimizerState.init(model_params, peak, 0.05, 500)
    rng = np.random.default_rng(12)
    rt = Runtime(training=True, rng=rng)
    hit_step = None
    bce = None
    for step in range(500):
        zero_grads(model_params)
        with Tape():
            out0 = forward_batch(p0, model_params, cfg, rt)
            out1 = forward_batch(p1, model_params, cfg, rt)
            loss = pairwise_bce(pairwise_logit(out0.cls, out1.cls, model_params, cfg.ln_eps),
                                labels)
            backward(loss)
        clip_gradients(model_params, 5.0)
        adam_step(model_params, {k: p.grad for k, p in model_params.items()}, opt,
                  lr_at_step(step, peak, 0.05, 500))
        bce = loss.item()
        if bce < 0.05:
            hit_step = step
            break
    elapsed = time.time() - t0
    ok = walkthrough_ok and hit_step is not None
    report(8, "pairwise head", ok,
           f"(walkthrough ok={walkthrough_ok}, bce {bce:.4f} at step {hit_step}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 9. reproducibility plumbing


def test_criterion_9_reproducibility(tmp_path):
    bundle = make_bundle(seed=13, n_images=24)
    cfg = RunConfig()
    cfg.schedule = ScheduleConfig(epochs=4, batch_size=8, peak_lr=1e-3,
                                  qa_start_fraction=0.5)
    full = run_pretraining(bundle, cfg, seed=14, out_dir=tmp_path / "full")
    again = run_pretraining(bundle, cfg, seed=14, out_dir=tmp_path / "again")

    def logs(path):
        with open(path) as fh:
            return [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
                    for line in fh]

    logs_ok = logs(full.metrics_path) == logs(again.metrics_path)

    # checkpoint byte identity
    ck_path = tmp_path / "full" / "checkpoint-final.ckpt"
    loaded = load_checkpoint(ck_path)
    from crossmodal.checkpoint import save_checkpoint
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, loaded)
    bytes_ok = ck_path.read_bytes() == resaved.read_bytes()

    # resume reproduces the uninterrupted run exactly
    resumed = run_pretraining(bundle, cfg, seed=14, out_dir=tmp_path / "resumed",
                              resume=str(tmp_path / "full" / "checkpoint-epoch-2.ckpt"))
    steps_per_epoch = len(full.history) // 4
    tail = full.history[2 * steps_per_epoch:]
    resume_ok = (
        len(resumed.history) == len(tail)
        and all(a["total"] == b["total"] and a["step"] == b["step"]
                for a, b in zip(resumed.history, tail))
    )
    ok = logs_ok and bytes_ok and resume_ok
    report(9, "reproducibility plumbing", ok,
           f"(logs {logs_ok}, bytes {bytes_ok}, resume {resume_ok})")


# ---------------------------------------------------------------------------
# 10. schedule oracle


def test_criterion_10_schedule_oracle():
    # five hand-computed probes of the linear warmup/decay shape
    probes = [
        (0, 0.0),
        (25, 0.5e-4),
        (50, 1e-4),
        (525, 1e-4 * (1000 - 525) / 950.0),
        (1000, 0.0),
    ]
    lr_ok = all(abs(lr_at_step(step, 1e-4, 0.05, 1000) - want) < 1e-12
                for step, want in probes)

    # Adam vs a hand-rolled scalar oracle over two steps
    p = {"x": Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)}
    state = OptimizerState.init(p, 0.1, 0.0, 10)
    m = v = 0.0
    x_ref = 0.0
    adam_ok = True
    for t, g in enumerate([1.0, 0.5], start=1):
        adam_step(p, {"x": np.array([g], dtype=np.float64)}, state, lr=0.1)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x_ref -= 0.1 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        if abs(p["x"].data[0] - x_ref) >= 1e-10:
            adam_ok = False
    report(10, "schedule oracle", lr_ok and adam_ok,
           f"(lr probes {lr_ok}, adam two-step {adam_ok})")
