"""Output checks for the benchmark, computed apart from the program.

Every check is a function that returns a list of problems; an empty list
means the check passed. The references here use plain float64 numpy and
never call ``crossmodal.tensor``, so a fault in the program's primitives
cannot hide in both sides of a comparison.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances, fixed before any run was looked at.
FORWARD_ATOL = 1e-3        # float32 forward against the float64 reference
GRAD_RTOL = 1e-5           # tape gradient against central differences (float64)
GRAD_ATOL = 1e-8
ADAM_RTOL = 1e-5           # float32 Adam step against float64, relative to each array's scale
ATTENTION_ROW_ATOL = 1e-6  # |sum of an attention row - 1|

_GELU_C = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# float64 reference forward pass


def _ln(x, g, b, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x * x * x)))


def _attention(q_in, c_in, keep, p, prefix, heads):
    b, nq, d = q_in.shape
    nc = c_in.shape[1]
    dk = d // heads

    def split(x, n):
        return x.reshape(b, n, heads, dk).transpose(0, 2, 1, 3)

    q = split(q_in @ p[f"{prefix}.wq"] + p[f"{prefix}.bq"], nq)
    k = split(c_in @ p[f"{prefix}.wk"] + p[f"{prefix}.bk"], nc)
    v = split(c_in @ p[f"{prefix}.wv"] + p[f"{prefix}.bv"], nc)
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dk)
    scores = np.where(keep[:, None, None, :], scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    mixed = (alpha @ v).transpose(0, 2, 1, 3).reshape(b, nq, d)
    return mixed @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]


def _ff(x, p, prefix):
    return _gelu(x @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"]) @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]


def _res_ln(x, sub, p, prefix, eps):
    return _ln(x + sub, p[f"{prefix}.g"], p[f"{prefix}.b"], eps)


def reference_forward(packed, params: dict, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings and the three encoder stacks in eval mode, in float64.

    ``params`` maps names to arrays. Returns the language and vision
    outputs, shaped (B, n, d) and (B, m, d).
    """
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    eps, h = cfg.ln_eps, cfg.num_heads
    ids = np.asarray(packed.token_ids)
    n = ids.shape[1]
    lang = _ln(p["emb.word"][ids] + p["emb.pos"][:n], p["emb.lang_ln.g"], p["emb.lang_ln.b"], eps)
    feats = np.asarray(packed.roi_features, np.float64) * ~np.asarray(packed.obj_mask_flags)[..., None]
    fh = _ln(feats @ p["emb.feat_w"] + p["emb.feat_b"], p["emb.feat_ln.g"], p["emb.feat_ln.b"], eps)
    boxes = np.asarray(packed.boxes, np.float64)
    ph = _ln(boxes @ p["emb.box_w"] + p["emb.box_b"], p["emb.box_ln.g"], p["emb.box_ln.b"], eps)
    vis = (fh + ph) * 0.5
    lmask = np.asarray(packed.token_mask, bool)
    vmask = np.asarray(packed.obj_real, bool)

    def single(x, keep, pre):
        y = _res_ln(x, _attention(x, x, keep, p, f"{pre}.attn", h), p, f"{pre}.attn_ln", eps)
        return _res_ln(y, _ff(y, p, f"{pre}.ff"), p, f"{pre}.ff_ln", eps)

    for i in range(cfg.n_lang_layers):
        lang = single(lang, lmask, f"lang.{i}")
    for i in range(cfg.n_vis_layers):
        vis = single(vis, vmask, f"vis.{i}")
    for k in range(cfg.n_cross_layers):
        pre = f"cross.{k}"
        lx = _res_ln(lang, _attention(lang, vis, vmask, p, f"{pre}.l2r", h), p, f"{pre}.l2r_ln", eps)
        vx = _res_ln(vis, _attention(vis, lang, lmask, p, f"{pre}.r2l", h), p, f"{pre}.r2l_ln", eps)
        ls = _res_ln(lx, _attention(lx, lx, lmask, p, f"{pre}.self_l", h), p, f"{pre}.self_l_ln", eps)
        vs = _res_ln(vx, _attention(vx, vx, vmask, p, f"{pre}.self_r", h), p, f"{pre}.self_r_ln", eps)
        lang = _res_ln(ls, _ff(ls, p, f"{pre}.ff_l"), p, f"{pre}.ff_l_ln", eps)
        vis = _res_ln(vs, _ff(vs, p, f"{pre}.ff_r"), p, f"{pre}.ff_r_ln", eps)
    return lang, vis


def check_forward(got: dict[str, np.ndarray], want: dict[str, np.ndarray],
                  atol: float = FORWARD_ATOL) -> list[str]:
    """Program outputs against the reference, by name."""
    problems = []
    for name, ref in want.items():
        out = np.asarray(got[name], np.float64)
        if out.shape != ref.shape:
            problems.append(f"forward {name}: shape {out.shape} != reference {ref.shape}")
            continue
        err = float(np.abs(out - ref).max())
        if not err <= atol:
            problems.append(f"forward {name}: max |program - reference| {err:.3e} > {atol:g}")
    return problems


# ---------------------------------------------------------------------------
# gradients, Adam, clipping


def parameter_group(name: str) -> str:
    """Scope of a parameter: emb, lang.i, vis.i, cross.k.<sub-layer>, head.<task>, pair."""
    parts = name.split(".")
    if parts[0] == "cross":
        return ".".join(parts[:2] + [parts[2].removesuffix("_ln")])
    if parts[0] in ("lang", "vis", "head"):
        return ".".join(parts[:2])
    return parts[0]


def check_gradients(probes: list[tuple[str, float, float]],
                    rtol: float = GRAD_RTOL, atol: float = GRAD_ATOL) -> list[str]:
    """Each probe is (coordinate label, tape gradient, central difference)."""
    problems = []
    for label, analytic, numeric in probes:
        if not abs(analytic - numeric) <= atol + rtol * max(abs(analytic), abs(numeric)):
            problems.append(f"gradient {label}: tape {analytic:.6e}, central difference {numeric:.6e}")
    if not probes:
        problems.append("gradient check sampled no coordinates")
    return problems


def adam_reference(p, g, m, v, step: int, lr: float, beta1: float, beta2: float,
                   eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam update in float64 from the prior moments; step is the prior count."""
    p, g, m, v = (np.asarray(a, np.float64) for a in (p, g, m, v))
    t = step + 1
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    p = p - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return p, m, v


def check_adam_step(before: dict, grads: dict, after: dict, m_after: dict, v_after: dict,
                    m_prior: dict, v_prior: dict, step: int, lr: float, beta1: float,
                    beta2: float, eps: float, rtol: float = ADAM_RTOL) -> list[str]:
    """One program Adam step against the float64 update from the same prior state.

    Arrays are keyed by parameter name and compared within ``rtol`` of their
    largest entry. A parameter is compared through its update, which is small
    against the parameter itself, with an allowance for rounding the stored
    float32 parameter after the update.
    """
    problems = []
    for k in before:
        rp, rm, rv = adam_reference(before[k], grads[k], m_prior[k], v_prior[k], step, lr,
                                    beta1, beta2, eps)
        b = np.asarray(before[k], np.float64)
        for what, got, want, slack in (("update", after[k] - b, rp - b, 2.0**-23 * np.abs(rp)),
                                       ("m", m_after[k], rm, 0.0), ("v", v_after[k], rv, 0.0)):
            err = np.abs(np.asarray(got, np.float64) - want)
            scale = float(np.abs(want).max())
            if not (err <= rtol * scale + slack).all():
                problems.append(f"adam {k} {what}: max error {float(err.max()):.3e}, scale {scale:.3e}")
    return problems


def global_norm(grads) -> float:
    return math.sqrt(sum(float((np.asarray(g, np.float64) ** 2).sum()) for g in grads))


def check_clip(grads_after, max_norm: float, norm_before: float, returned: float) -> list[str]:
    """After clipping, the global norm is at most ``max_norm`` and the pre-clip norm is returned."""
    problems = []
    after = global_norm(grads_after)
    if not after <= max_norm * (1.0 + 1e-6):
        problems.append(f"clip: global norm {after:.6g} > clip_norm {max_norm:.6g}")
    if not abs(returned - norm_before) <= 1e-6 * norm_before:
        problems.append(f"clip: returned norm {returned:.6g} != pre-clip norm {norm_before:.6g}")
    return problems


# ---------------------------------------------------------------------------
# properties of the method


def check_histories_equal(histories: list[list[dict]], ignore=("wall_time",)) -> list[str]:
    """Repetitions with one seed give identical histories, every field except ``ignore``."""
    first = histories[0]
    for r, other in enumerate(histories[1:], start=1):
        if len(other) != len(first):
            return [f"history of repetition {r} has {len(other)} lines, first has {len(first)}"]
        for a, b in zip(first, other):
            ka = {k: v for k, v in a.items() if k not in ignore}
            kb = {k: v for k, v in b.items() if k not in ignore}
            if ka != kb:
                return [f"repetition {r} differs at step {a.get('step')}: {ka} != {kb}"]
    return []


def check_loss_falls(losses: list[float]) -> list[str]:
    """The mean over the last tenth of steps is below the mean over the first tenth."""
    k = max(1, len(losses) // 10)
    head, tail = float(np.mean(losses[:k])), float(np.mean(losses[-k:]))
    if not tail < head:
        return [f"loss did not fall: first tenth {head:.4f}, last tenth {tail:.4f} ({len(losses)} steps)"]
    return []


def check_counts(metrics: dict, expected: dict) -> list[str]:
    return [f"{k}: program {metrics.get(k)} != derived {v}"
            for k, v in expected.items() if metrics.get(k) != v]


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_roundtrip(before: dict[str, np.ndarray], after: dict[str, np.ndarray],
                    file_bytes: int, layout: dict[str, tuple]) -> list[str]:
    """Loaded tensors are bit-equal to the saved ones, and the file holds at least
    the raw float32 bytes of the parameters and both Adam moments."""
    problems = []
    if set(before) != set(after):
        problems.append(f"round trip changed the tensor names: {sorted(set(before) ^ set(after))[:3]}")
    for name in sorted(set(before) & set(after)):
        if not _bits_equal(before[name], after[name]):
            problems.append(f"round trip changed tensor {name}")
    raw = 3 * 4 * sum(math.prod(shape) for shape in layout.values())
    if file_bytes < raw:
        problems.append(f"checkpoint of {file_bytes} bytes is smaller than its {raw} raw bytes")
    return problems


def check_attention_dump(dump: dict, n_groups: int, atol: float = ATTENTION_ROW_ATOL) -> list[str]:
    """The dump holds ``n_groups`` groups and every attention row sums to 1."""
    problems = []
    groups = dump["groups"]
    if len(groups) != n_groups:
        problems.append(f"attention dump holds {len(groups)} groups, expected {n_groups}")
    worst = 0.0
    for g in groups:
        for head in g["heads"]:
            for row in head:
                worst = max(worst, abs(math.fsum(row) - 1.0))
    if not worst <= atol:
        problems.append(f"attention row sums differ from 1 by {worst:.3e} > {atol:g}")
    return problems


def check_trace_exact(traced: float, program: float) -> list[str]:
    if traced != program:
        return [f"traced loss {traced!r} != forward_batch + pretrain_losses {program!r}: "
                "the traced step has drifted from the program"]
    return []
