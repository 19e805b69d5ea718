"""The timed phase of a run, end to end or traced, and the output checks after it."""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import checks
from crossmodal.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
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
from crossmodal.heads import pretrain_losses
from crossmodal.optim import OptimizerState, adam_step, clip_gradients
from crossmodal.params import init_params, parameter_layout
from crossmodal.tensor import Tape, Tensor, backward, using_dtype, zero_grads
from crossmodal.train import dump_attention
from tracing import COUNTED_OPS, Tracer, eval_loss_pair, training_step


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# end to end


MIN_REPS = 3


def end_to_end(job, seconds: float, setup_s: float) -> dict:
    """Repeat the workload until ``seconds`` have passed; report median repetitions."""
    reps = []
    t0 = time.perf_counter()
    t_end = t0 + seconds
    while True:
        # end the run nearest to t_end: stop once a repetition of the mean
        # length would end more than half of it past t_end
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now + 0.5 * (now - t0) / len(reps) >= t_end:
            break
        reps.append(job.rep())
    last = reps[-1]
    print(f"bench: {len(reps)} repetitions; train rows/s "
          + " ".join(f"{r.train_rows / r.train_s:.1f}" for r in reps)
          + "; eval rows/s " + " ".join(f"{r.eval_rows / r.eval_s:.1f}" for r in reps),
          file=sys.stderr)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "train_rows_per_s": _metric(statistics.median(r.train_rows / r.train_s for r in reps), "rows/s"),
        "eval_rows_per_s": _metric(statistics.median(r.eval_rows / r.eval_s for r in reps), "rows/s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "checkpoint_bytes": _metric(os.path.getsize(last.checkpoint), "bytes"),
    }
    problems = checks.check_histories_equal([r.history for r in reps])
    problems += checks.check_histories_equal([[r.eval_metrics] for r in reps])
    problems += run_checks(job, last)
    attempted = sum(r.train_rows + r.eval_rows for r in reps)
    return {"metrics": metrics, "problems": problems, "attempted": attempted}


# ---------------------------------------------------------------------------
# traced


class TraceJob:
    """State for the traced and untraced training steps of one workload."""

    def __init__(self, job):
        spec = job.spec
        self.cfg = job.initial.config
        self.vocab = job.bundle.vocab
        self.params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in job.initial.params.items()}
        self.opt = OptimizerState.init(self.params, spec.lr, 0.05, 10_000)
        # a constant, small step: the traced steps run for as long as the run
        # lasts, without a schedule to bring the rate down
        self.lr = spec.lr * 0.1
        self.clip_norm = job.cfg.schedule.clip_norm
        self.gate_object_tasks = job.cfg.schedule.gate_object_tasks
        self.rng = np.random.default_rng(job.seed + 5)
        self.rt = Runtime(training=True, rng=self.rng)
        self.records = job.bundle.split("train")
        table = build_answer_table(self.records, job.cfg.schedule.answer_coverage)
        self.maker = BatchMaker(self.records, job.bundle.store, self.vocab, table,
                                job.cfg.masking, self.cfg)
        self.batch = spec.batch

    def next_chunk(self):
        idx = self.rng.integers(0, len(self.records), size=self.batch)
        return [self.records[int(i)] for i in idx]


def _span_totals(spans, first: int) -> dict[str, float]:
    """Milliseconds per span name over spans[first:]."""
    totals: dict[str, float] = {}
    for name, start, end, _ in spans[first:]:
        totals[name] = totals.get(name, 0.0) + 1000.0 * (end - start)
    return totals


STEP_SPANS = ("data.make_row", "data.collate", "embeddings.forward", "encoders.lang.forward",
              "encoders.vis.forward", "encoders.cross.forward", "heads.forward",
              "tensor.backward", "optim.zero_grads", "optim.clip", "optim.adam", "train.step")
CALL_SPANS = ("checkpoint.save", "checkpoint.load", "train.eval_batch")


def traced(job, seconds: float, out_root: str) -> dict:
    """One untimed repetition, then untraced and traced steps in alternating order.

    After each pair one eval batch is traced, and every fifth pair a
    checkpoint save and load. The run, repetition included, lasts ``seconds``.
    """
    t_end = time.perf_counter() + seconds
    last = job.rep()
    tj = TraceJob(job)
    tr = Tracer()
    ckpt = Checkpoint(config=tj.cfg, heads=job.initial.heads, params=tj.params, opt_state=tj.opt,
                      extra=job.initial.extra)
    ckpt_path = os.path.join(job.workdir, "trace.ckpt")
    eval_maker = BatchMaker(job.dev, job.bundle.store, tj.vocab, tj.maker.answer_table,
                            MaskingConfig(), tj.cfg)
    eval_rng = np.random.default_rng(job.seed + 6)
    eval_rows = job.dev[:32]

    per_step: dict[str, list[float]] = {}
    untraced_ms, steps = [], 0
    for it in itertools.count():
        if it >= 5 and time.perf_counter() >= t_end:
            break
        # alternate which of the pair goes first, so slow drifts hit both alike
        for use_trace in ((True, False) if it % 2 == 0 else (False, True)):
            if use_trace:
                first = len(tr.spans)
                totals = training_step(tj, tr)
                totals.update(_span_totals(tr.spans, first))
                for k, v in totals.items():
                    per_step.setdefault(k, []).append(v)
            else:
                t0 = time.perf_counter()
                training_step(tj)
                untraced_ms.append(1000.0 * (time.perf_counter() - t0))
            steps += 1
        packed = collate(eval_maker.make_batch(eval_rows, eval_rng), tj.vocab)
        with tr.span("train.eval_batch"):
            forward_batch(packed, tj.params, tj.cfg)
        if it % 5 == 0:
            with tr.span("checkpoint.save"):
                save_checkpoint(ckpt_path, ckpt)
            with tr.span("checkpoint.load"):
                load_checkpoint(ckpt_path)

    median = statistics.median
    by_call: dict[str, list[float]] = {}
    for name, start, end, _ in tr.spans:
        if name in CALL_SPANS:
            by_call.setdefault(name, []).append(1000.0 * (end - start))
    metrics = {f"{n}_ms": _metric(median(per_step[n]), "ms") for n in STEP_SPANS}
    metrics.update({f"{n}_ms": _metric(median(by_call[n]), "ms") for n in CALL_SPANS})
    metrics["trace.overhead_ms"] = _metric(metrics["train.step_ms"]["value"] - median(untraced_ms), "ms")
    metrics["tensor.tape_bytes"] = _metric(median(per_step["tensor.tape_bytes"]), "bytes")
    for name in ["tensor.tape_records"] + [f"tensor.records.{op}" for op in COUNTED_OPS]:
        metrics[name] = _metric(median(per_step[name]), "count")

    os.makedirs(out_root, exist_ok=True)
    trace_path = os.path.join(out_root, f"trace-{job.name}-seed{job.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": job.name, "seed": job.seed, "spans": tr.to_json()}, fh)

    problems = run_checks(job, last)
    # the traced forward must be the program's forward, to the bit
    packed = collate(eval_maker.make_batch(job.dev[:8], eval_rng), tj.vocab)
    problems += checks.check_trace_exact(*eval_loss_pair(packed, tj.params, tj.cfg, Runtime()))
    return {"metrics": metrics, "problems": problems, "attempted": steps}


# ---------------------------------------------------------------------------
# output checks, outside every timed region


def _forward_check(job, params, cfg) -> list[str]:
    table = build_answer_table(job.bundle.split("train"), 1.0)
    maker = BatchMaker(job.dev, job.bundle.store, job.bundle.vocab, table, MaskingConfig(), cfg)
    rng = np.random.default_rng(job.seed + 7)
    packed = collate(maker.make_batch(job.dev[:8], rng), job.bundle.vocab)
    out = forward_batch(packed, params, cfg)
    lang, vis = checks.reference_forward(packed, {k: p.data for k, p in params.items()}, cfg)
    return checks.check_forward({"lang": out.lang.data, "vis": out.vis.data},
                                {"lang": lang, "vis": vis})


def _batch_gradients(job, params, cfg):
    """Gradients of the pre-training loss on one train batch, in eval mode."""
    records = job.bundle.split("train")
    table = build_answer_table(records, 1.0)
    maker = BatchMaker(records, job.bundle.store, job.bundle.vocab, table, MaskingConfig(), cfg)
    packed = collate(maker.make_batch(records[:8], np.random.default_rng(job.seed + 8)),
                     job.bundle.vocab)
    zero_grads(params)
    with Tape():
        backward(pretrain_losses(packed, forward_batch(packed, params, cfg), params).total)


def _optimizer_checks(job, ckpt) -> list[str]:
    """One Adam step against float64, and clipping, on the trained state."""
    cfg = ckpt.config
    params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in ckpt.params.items()}
    _batch_gradients(job, params, cfg)
    params = {k: p for k, p in params.items() if p.grad is not None and p.grad.any()}

    grads = {k: p.grad.copy() for k, p in params.items()}
    max_norm = 0.5 * checks.global_norm(grads.values())
    returned = clip_gradients(params, max_norm)
    problems = checks.check_clip([p.grad for p in params.values()], max_norm,
                                 checks.global_norm(grads.values()), returned)

    st = ckpt.opt_state
    opt = OptimizerState({k: st.m[k].copy() for k in params}, {k: st.v[k].copy() for k in params},
                         step=st.step, beta1=st.beta1, beta2=st.beta2, eps=st.eps)
    before = {k: p.data.copy() for k, p in params.items()}
    lr = 1e-3
    adam_step(params, {k: p.grad for k, p in params.items()}, opt, lr)
    return problems + checks.check_adam_step(
        before, {k: p.grad for k, p in params.items()}, {k: p.data for k, p in params.items()},
        opt.m, opt.v, st.m, st.v, st.step, lr, st.beta1, st.beta2, st.eps)


def gradient_probes(seed: int, per_group: int = 2) -> list[tuple[str, float, float]]:
    """Tape gradients against central differences in float64, on a tiny model.

    ``per_group`` coordinates are drawn from every parameter group.
    """
    with using_dtype(np.float64):
        labels = DEFAULT_LABELS[:4]
        records, store = generate_synthetic_corpus(seed=seed, n_images=4, label_vocab=labels,
                                                   feat_dim=4, objects_per_image=3,
                                                   dev_fraction=0.0)
        vocab = Vocabulary.from_records(records)
        table = build_answer_table(records, 1.0)
        cfg = ModelConfig(n_lang_layers=1, n_cross_layers=1, n_vis_layers=1, hidden_size=8,
                          num_heads=2, feat_dim=4, vocab_size=len(vocab), num_labels=len(labels),
                          num_answers=len(table), max_sentence_len=8, objects_per_image=3,
                          dropout=0.0).validate()
        rng = np.random.default_rng(seed)
        params = init_params(cfg, rng)
        # a generic point: at init the biases are zero, so a masked object's
        # zeroed feature row reaches emb.feat_ln as a constant vector, where
        # the loss curves on a scale of sqrt(ln_eps) and central differences fail
        for p in params.values():
            p.data += rng.normal(0.0, 0.1, size=p.data.shape)
        masking = MaskingConfig(word_mask_prob=0.5, object_mask_prob=0.5, mismatch_prob=0.3)
        maker = BatchMaker(records, store, vocab, table, masking, cfg)
        questions = [r for r in records if r.is_question][:2]
        captions = [r for r in records if not r.is_question][:2]
        packed = collate(maker.make_batch(questions + captions, rng), vocab)

        def loss() -> Tensor:
            return pretrain_losses(packed, forward_batch(packed, params, cfg), params).total

        zero_grads(params)
        with Tape():
            backward(loss())
        groups: dict[str, list[str]] = {}
        for name in params:
            groups.setdefault(checks.parameter_group(name), []).append(name)
        probes, h = [], 1e-6
        for group, names in groups.items():
            for _ in range(per_group):
                name = names[int(rng.integers(len(names)))]
                p = params[name].data.reshape(-1)
                i = int(rng.integers(p.size))
                old = p[i]
                p[i] = old + h
                up = loss().item()
                p[i] = old - h
                down = loss().item()
                p[i] = old
                probes.append((f"{name}[{i}]", float(params[name].grad.reshape(-1)[i]),
                               (up - down) / (2 * h)))
    return probes


def run_checks(job, rep) -> list[str]:
    """Every output check on the last repetition's state; none of this is timed."""
    ckpt = load_checkpoint(rep.checkpoint)
    cfg = ckpt.config
    problems = _forward_check(job, ckpt.params, cfg)
    problems += checks.check_gradients(gradient_probes(job.seed))
    problems += _optimizer_checks(job, ckpt)

    key = "total" if job.spec.kind == "pretrain" else "loss"
    problems += checks.check_loss_falls([line[key] for line in rep.history])
    answers = set(ckpt.extra.get("answers", ()))
    problems += checks.check_counts(rep.eval_metrics, {
        "match_n": len(job.dev),
        "qa_n": sum(r.is_question and r.answer in answers for r in job.dev),
    })

    path = os.path.join(job.workdir, "roundtrip.ckpt")
    save_checkpoint(path, ckpt)
    again = load_checkpoint(path)

    def tensors(c):
        out = {k: p.data for k, p in c.params.items()}
        out.update({f"m.{k}": a for k, a in c.opt_state.m.items()})
        out.update({f"v.{k}": a for k, a in c.opt_state.v.items()})
        return out

    problems += checks.check_roundtrip(tensors(ckpt), tensors(again), os.path.getsize(path),
                                       parameter_layout(cfg, ckpt.heads))

    dump = rep.dump
    if dump is None:
        dump = dump_attention(ckpt, job.bundle, job.dump_index,
                              os.path.join(job.workdir, "attention.json"))
    n_groups = cfg.n_lang_layers + cfg.n_vis_layers + 4 * cfg.n_cross_layers
    problems += checks.check_attention_dump(dump, n_groups)
    return problems
