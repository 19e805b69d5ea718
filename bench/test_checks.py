"""Each output check accepts the program's real output and rejects a perturbed one.

    python3 -m pytest bench/test_checks.py -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
from crossmodal.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from crossmodal.config import MaskingConfig, ModelConfig, RunConfig  # noqa: E402
from crossmodal.data import (  # noqa: E402
    DEFAULT_LABELS,
    BatchMaker,
    Vocabulary,
    build_answer_table,
    collate,
    generate_synthetic_corpus,
)
from crossmodal.encoders import Runtime, forward_batch  # noqa: E402
from crossmodal.optim import OptimizerState, adam_step, clip_gradients  # noqa: E402
from crossmodal.params import parameter_layout  # noqa: E402
from crossmodal.tensor import Tensor  # noqa: E402
from crossmodal.train import DataBundle, dump_attention, make_initial_checkpoint  # noqa: E402
from measure import gradient_probes  # noqa: E402
from tracing import eval_loss_pair  # noqa: E402

LABELS = DEFAULT_LABELS[:6]


@pytest.fixture(scope="module")
def small():
    """A small model on a small corpus: bundle, checkpoint with Adam state, packed batch."""
    records, store = generate_synthetic_corpus(seed=3, n_images=8, label_vocab=LABELS,
                                               feat_dim=8, objects_per_image=4)
    vocab = Vocabulary.from_records([r for r in records if r.split == "train"])
    bundle = DataBundle(records, store, vocab, list(LABELS))
    run_cfg = RunConfig()
    run_cfg.model = ModelConfig(n_lang_layers=1, n_cross_layers=1, n_vis_layers=1,
                                hidden_size=16, num_heads=2, feat_dim=8, objects_per_image=4)
    ckpt = make_initial_checkpoint(run_cfg, bundle, seed=5)
    rng = np.random.default_rng(0)
    for p in ckpt.params.values():
        p.data += rng.normal(0.0, 0.1, size=p.data.shape).astype(p.data.dtype)
    ckpt.opt_state = OptimizerState.init(ckpt.params, 1e-3, 0.05, 100)
    for k in ckpt.opt_state.m:
        ckpt.opt_state.m[k] += rng.normal(0.0, 1e-2, size=ckpt.opt_state.m[k].shape).astype(np.float32)
        ckpt.opt_state.v[k] += rng.uniform(0.0, 1e-4, size=ckpt.opt_state.v[k].shape).astype(np.float32)
    ckpt.opt_state.step = 7
    table = build_answer_table(bundle.split("train"), 1.0)
    maker = BatchMaker(records, store, vocab, table, MaskingConfig(), ckpt.config)
    packed = collate(maker.make_batch(records[:4], rng), vocab)
    return bundle, ckpt, packed


def test_forward_reference_accepts_program_and_rejects_swapped_row(small):
    _, ckpt, packed = small
    out = forward_batch(packed, ckpt.params, ckpt.config)
    lang, vis = checks.reference_forward(packed, {k: p.data for k, p in ckpt.params.items()},
                                         ckpt.config)
    got = {"lang": out.lang.data, "vis": out.vis.data}
    assert checks.check_forward(got, {"lang": lang, "vis": vis}) == []
    swapped = out.vis.data.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert checks.check_forward({"lang": out.lang.data, "vis": swapped}, {"lang": lang, "vis": vis})


def test_gradient_check_accepts_tape_and_rejects_flipped_sign():
    probes = gradient_probes(seed=0)
    assert checks.check_gradients(probes) == []
    groups = {checks.parameter_group(label.split("[")[0]) for label, _, _ in probes}
    assert {"emb", "lang.0", "vis.0", "cross.0.l2r", "cross.0.ff_r", "head.qa"} <= groups
    i = max(range(len(probes)), key=lambda j: abs(probes[j][1]))
    label, analytic, numeric = probes[i]
    flipped = probes[:i] + [(label, -analytic, numeric)] + probes[i + 1:]
    assert checks.check_gradients(flipped)


def test_adam_check_accepts_program_and_rejects_changed_moment(small):
    _, ckpt, _ = small
    st = ckpt.opt_state
    params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in ckpt.params.items()}
    grads = {k: np.random.default_rng(1).normal(size=p.data.shape).astype(np.float32)
             for k, p in params.items()}
    opt = OptimizerState({k: a.copy() for k, a in st.m.items()},
                         {k: a.copy() for k, a in st.v.items()}, step=st.step)
    before = {k: p.data.copy() for k, p in params.items()}
    adam_step(params, grads, opt, 1e-3)
    after = {k: p.data for k, p in params.items()}

    def check(prior_m):
        return checks.check_adam_step(before, grads, after, opt.m, opt.v, prior_m, st.v,
                                      st.step, 1e-3, st.beta1, st.beta2, st.eps)

    assert check(st.m) == []
    changed = {k: a.copy() for k, a in st.m.items()}
    changed["lang.0.ff.w1"][0, 0] += float(np.abs(changed["lang.0.ff.w1"]).max())
    assert check(changed)


def test_clip_check_accepts_clipped_and_rejects_unclipped(small):
    _, ckpt, _ = small
    params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in ckpt.params.items()}
    rng = np.random.default_rng(2)
    for p in params.values():
        p.grad = rng.normal(size=p.data.shape).astype(np.float32)
    raw = [p.grad.copy() for p in params.values()]
    norm = checks.global_norm(raw)
    returned = clip_gradients(params, 0.5 * norm)
    assert checks.check_clip([p.grad for p in params.values()], 0.5 * norm, norm, returned) == []
    assert checks.check_clip(raw, 0.5 * norm, norm, returned)
    assert checks.check_clip([p.grad for p in params.values()], 0.5 * norm, norm, 0.5 * norm)


def test_history_check_ignores_wall_time_only():
    h = [{"step": i, "total": 5.0 - i, "wall_time": 0.1 * i} for i in range(20)]
    later = [dict(line, wall_time=line["wall_time"] + 1.0) for line in h]
    assert checks.check_histories_equal([h, later]) == []
    changed = [dict(line) for line in later]
    changed[7]["total"] = np.nextafter(changed[7]["total"], 0.0)
    assert checks.check_histories_equal([h, changed])
    assert checks.check_histories_equal([h, later[:-1]])


def test_loss_falls_check():
    falling = list(np.linspace(8.0, 3.0, 40))
    assert checks.check_loss_falls(falling) == []
    assert checks.check_loss_falls(falling[::-1])
    assert checks.check_loss_falls([4.0] * 40)


def test_count_check_rejects_off_by_one():
    assert checks.check_counts({"match_n": 120, "qa_n": 40}, {"match_n": 120, "qa_n": 40}) == []
    assert checks.check_counts({"match_n": 120, "qa_n": 41}, {"match_n": 120, "qa_n": 40})


def test_roundtrip_check_accepts_program_and_rejects_flipped_bit(small, tmp_path):
    _, ckpt, _ = small
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, ckpt)
    again = load_checkpoint(path)
    before = {k: p.data for k, p in ckpt.params.items()}
    after = {k: p.data for k, p in again.params.items()}
    layout = parameter_layout(ckpt.config, ckpt.heads)
    size = os.path.getsize(path)
    assert checks.check_roundtrip(before, after, size, layout) == []
    flipped = dict(after, **{"emb.word": after["emb.word"].copy()})
    flipped["emb.word"].view(np.uint32)[0, 0] ^= 1
    assert checks.check_roundtrip(before, flipped, size, layout)
    assert checks.check_roundtrip(before, after, size // 4, layout)


def test_attention_check_accepts_dump_and_rejects_bad_row_or_group(small, tmp_path):
    bundle, ckpt, _ = small
    dump = dump_attention(ckpt, bundle, 0, tmp_path / "attn.json")
    cfg = ckpt.config
    n = cfg.n_lang_layers + cfg.n_vis_layers + 4 * cfg.n_cross_layers
    assert checks.check_attention_dump(dump, n) == []
    row = dump["groups"][2]["heads"][1][0]
    kept = row[0]
    row[0] = kept + 1e-5
    assert checks.check_attention_dump(dump, n)
    row[0] = kept
    dump["groups"].pop()
    assert checks.check_attention_dump(dump, n)


def test_trace_check_accepts_traced_forward_and_rejects_one_ulp(small):
    _, ckpt, packed = small
    traced, program = eval_loss_pair(packed, ckpt.params, ckpt.config, Runtime())
    assert checks.check_trace_exact(traced, program) == []
    assert checks.check_trace_exact(float(np.nextafter(traced, np.inf)), program)
