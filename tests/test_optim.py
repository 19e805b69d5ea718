"""Learning-rate schedule against hand-computed values; Adam against a scalar oracle."""

import numpy as np
import pytest

from crossmodal.optim import OptimizerState, adam_step, clip_gradients, lr_at_step
from crossmodal.tensor import Tensor


def test_lr_endpoints():
    assert lr_at_step(0, 1e-4, 0.05, 1000) == 0.0
    assert lr_at_step(50, 1e-4, 0.05, 1000) == pytest.approx(1e-4, abs=0.0)
    assert lr_at_step(1000, 1e-4, 0.05, 1000) == 0.0
    assert lr_at_step(5000, 1e-4, 0.05, 1000) == 0.0


def test_lr_hand_computed_probes():
    # warmup 50 steps, decay over the remaining 950
    assert abs(lr_at_step(25, 1e-4, 0.05, 1000) - 0.5e-4) < 1e-12
    assert abs(lr_at_step(525, 1e-4, 0.05, 1000) - 1e-4 * (1000 - 525) / 950) < 1e-12
    assert abs(lr_at_step(525, 1e-4, 0.05, 1000) - 5.0e-5) < 1e-9
    assert abs(lr_at_step(999, 1e-4, 0.05, 1000) - 1e-4 * 1 / 950) < 1e-12
    assert abs(lr_at_step(100, 2e-3, 0.1, 1000) - 2e-3) < 1e-12


def test_lr_piecewise_linear_and_peaked():
    total, peak, wf = 400, 3e-4, 0.05
    values = [lr_at_step(s, peak, wf, total) for s in range(total + 1)]
    assert max(values) == pytest.approx(peak)
    assert values.index(max(values)) == int(wf * total)
    diffs = np.diff(values)
    # one slope up, one slope down
    assert (diffs[: int(wf * total)] > 0).all()
    assert (diffs[int(wf * total):] < 0).all()
    ups = np.unique(np.round(diffs[: int(wf * total)], 12))
    downs = np.unique(np.round(diffs[int(wf * total):], 12))
    assert len(ups) == 1 and len(downs) <= 2  # last decay step hits exactly 0


def test_lr_rejects_bad_args():
    with pytest.raises(ValueError):
        lr_at_step(-1, 1e-4, 0.05, 100)
    with pytest.raises(ValueError):
        lr_at_step(0, 1e-4, 0.05, 0)


def _scalar_adam_oracle(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-rolled scalar Adam, bias-corrected."""
    x = 0.0
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x -= lr * mhat / (np.sqrt(vhat) + eps)
    return x


def test_adam_zero_gradient_leaves_params_unchanged():
    p = {"w": Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)}
    before = p["w"].data.copy()
    state = OptimizerState.init(p, 1e-3, 0.05, 100)
    adam_step(p, {"w": np.zeros((2, 3))}, state, lr=0.5)
    assert np.array_equal(p["w"].data, before)
    assert state.step == 1


def test_adam_first_step_magnitude():
    p = {"x": Tensor(np.array([0.0]), requires_grad=True)}
    state = OptimizerState.init(p, 0.1, 0.0, 10)
    adam_step(p, {"x": np.array([1.0])}, state, lr=0.1)
    # bias correction gives mhat = vhat = 1, so the step is lr/(1+eps)
    assert abs(p["x"].data[0] + 0.1) < 1e-8


def test_adam_matches_scalar_oracle_two_steps():
    p = {"x": Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)}
    state = OptimizerState.init(p, 0.1, 0.0, 10)
    grads = [1.0, 0.5]
    for g in grads:
        adam_step(p, {"x": np.array([g], dtype=np.float64)}, state, lr=0.1)
    expected = _scalar_adam_oracle(grads, lr=0.1)
    assert abs(p["x"].data[0] - expected) < 1e-10


def test_adam_longer_run_matches_oracle():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=20)
    p = {"x": Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)}
    state = OptimizerState.init(p, 0.01, 0.0, 100)
    for g in grads:
        adam_step(p, {"x": np.array([g], dtype=np.float64)}, state, lr=0.01)
    assert abs(p["x"].data[0] - _scalar_adam_oracle(grads, lr=0.01)) < 1e-10


def test_adam_missing_grad_names_parameter():
    p = {"w": Tensor(np.zeros(3), requires_grad=True),
         "b": Tensor(np.zeros(2), requires_grad=True)}
    state = OptimizerState.init(p, 1e-3, 0.0, 10)
    with pytest.raises(ValueError, match="'b'"):
        adam_step(p, {"w": np.zeros(3), "b": None}, state, lr=1e-3)


def test_clip_gradients_scales_to_max_norm():
    p = {"w": Tensor(np.zeros(4), requires_grad=True)}
    p["w"].grad = np.full(4, 3.0)
    norm = clip_gradients(p, max_norm=2.0)
    assert norm == pytest.approx(6.0)
    assert np.linalg.norm(p["w"].grad) == pytest.approx(2.0)


def test_clip_noop_below_threshold():
    p = {"w": Tensor(np.zeros(4), requires_grad=True)}
    p["w"].grad = np.full(4, 0.1)
    before = p["w"].grad.copy()
    clip_gradients(p, max_norm=5.0)
    assert np.array_equal(p["w"].grad, before)
    clip_gradients(p, max_norm=None)
    assert np.array_equal(p["w"].grad, before)


def test_adam_reads_a_plain_gradient_dict_and_packs_the_state():
    rng = np.random.default_rng(3)
    p = {"w": Tensor(rng.normal(size=(2, 3)), requires_grad=True),
         "b": Tensor(rng.normal(size=3), requires_grad=True)}
    before = {k: t.data.copy() for k, t in p.items()}
    grads = {k: rng.normal(size=t.data.shape) for k, t in p.items()}
    given = dict(grads)
    saved = {k: g.copy() for k, g in grads.items()}
    state = OptimizerState({k: np.zeros_like(t.data) for k, t in p.items()},
                           {k: np.zeros_like(t.data) for k, t in p.items()})
    adam_step(p, grads, state, lr=0.1)
    for k in p:
        # first step from zero moments: the update is lr g / (|g| + eps)
        want = before[k] - 0.1 * saved[k] / (np.abs(saved[k]) + 1e-8)
        assert np.abs(p[k].data - want).max() < 1e-12
        assert grads[k] is given[k] and np.array_equal(grads[k], saved[k])
    buffers = [p["w"].data.base, state.m["w"].base, state.v["w"].base]
    for buf, arrays in zip(buffers, ([t.data for t in p.values()], list(state.m.values()),
                                     list(state.v.values()))):
        assert buf is not None and buf.size == 9
        assert all(a.base is buf for a in arrays)
    adam_step(p, grads, state, lr=0.1)
    after = [p["w"].data.base, state.m["w"].base, state.v["w"].base]
    assert all(a is b for a, b in zip(after, buffers))


def test_adam_rejects_a_misshapen_gradient():
    p = {"w": Tensor(np.zeros((2, 3)), requires_grad=True)}
    state = OptimizerState.init(p, 1e-3, 0.0, 10)
    with pytest.raises(ValueError, match="'w'.*\\(3,\\)"):
        adam_step(p, {"w": np.zeros(3)}, state, lr=1e-3)


def test_clip_gradients_packs_separate_gradients():
    p = {"a": Tensor(np.zeros(3), requires_grad=True),
         "b": Tensor(np.zeros((2, 2)), requires_grad=True)}
    p["a"].grad = np.full(3, 2.0)
    p["b"].grad = np.full((2, 2), 2.0)
    assert clip_gradients(p, max_norm=1.0) == pytest.approx(np.sqrt(7 * 4.0))
    assert p["a"].grad.base is p["b"].grad.base is not None
    assert np.sqrt(sum((t.grad**2).sum() for t in p.values())) == pytest.approx(1.0)
