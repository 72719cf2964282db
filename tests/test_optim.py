"""AdamW update rule and cosine schedule."""

import math
import tracemalloc

import numpy as np
import pytest

from etcsnn.optim import OptimState, adamw_step, cosine_lr
from etcsnn.snn import LifParams, NetworkSpec, init_weights, lif_backward, lif_unroll
from oracles import adamw_step_frozen


def test_defaults_match_training_recipe():
    state = OptimState.fresh([np.zeros(1)])
    assert state.lr_base == 0.001
    assert state.weight_decay == 0.0001
    assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)


def test_single_scalar_step_textbook_value():
    # p=1, g=1, fresh moments, decay off: bias correction gives m_hat=v_hat=1,
    # so p' = 1 - lr/(1 + eps)
    state = OptimState.fresh([np.array([1.0])], weight_decay=0.0)
    (p_new,) = adamw_step([np.array([1.0])], [np.array([1.0])], state, lr_now=0.001)
    expected = 1.0 - 0.001 * (1.0 / (1.0 + 1e-8))
    assert abs(p_new[0] - expected) < 1e-16
    assert state.step == 1


def test_zero_grad_zero_decay_is_noop():
    p = np.array([[0.5, -1.5], [2.0, 0.0]])
    state = OptimState.fresh([p], weight_decay=0.0)
    (p_new,) = adamw_step([p], [np.zeros_like(p)], state, lr_now=0.1)
    assert np.array_equal(p_new, p)
    assert p_new is not p
    assert state.step == 1


def test_zero_grad_reduces_to_multiplicative_decay():
    p = np.array([1.0, -2.0, 0.25])
    state = OptimState.fresh([p], weight_decay=0.01)
    cur = p
    for _ in range(3):
        (cur,) = adamw_step([cur], [np.zeros_like(cur)], state, lr_now=0.1)
    np.testing.assert_allclose(cur, p * (1.0 - 0.1 * 0.01) ** 3, rtol=1e-14)


def test_update_is_deterministic():
    rng = np.random.default_rng(0)
    p = [rng.normal(size=(3, 4)), rng.normal(size=(4,))]
    g = [rng.normal(size=(3, 4)), rng.normal(size=(4,))]
    s1 = OptimState.fresh(p)
    s2 = OptimState.fresh(p)
    out1 = adamw_step(p, g, s1, 0.001)
    out2 = adamw_step(p, g, s2, 0.001)
    for a, b in zip(out1, out2):
        assert np.array_equal(a, b)
    for a, b in zip(s1.v, s2.v):
        assert np.array_equal(a, b)


def test_second_moment_stays_nonnegative():
    rng = np.random.default_rng(1)
    p = [rng.normal(size=(5, 3))]
    state = OptimState.fresh(p)
    cur = p
    for _ in range(20):
        cur = adamw_step(cur, [rng.normal(size=(5, 3)) * 10], state, 0.01)
    assert all((v >= 0).all() for v in state.v)


def test_inputs_never_mutated():
    p = np.ones((2, 2))
    g = np.full((2, 2), 0.5)
    p_copy, g_copy = p.copy(), g.copy()
    state = OptimState.fresh([p])
    adamw_step([p], [g], state, 0.001)
    assert np.array_equal(p, p_copy)
    assert np.array_equal(g, g_copy)


def test_nonfinite_gradient_names_parameter():
    p = [np.ones(2), np.ones(3)]
    g = [np.ones(2), np.array([1.0, np.nan, 0.0])]
    state = OptimState.fresh(p)
    with pytest.raises(ValueError, match="non-finite gradient for w1"):
        adamw_step(p, g, state, 0.001)


def _bits(arrays):
    return [np.asarray(a).view(np.uint64).copy() for a in arrays]


def test_update_matches_frozen_per_layer_rule_bitwise():
    """The whole-model update equals the per-layer rule bit for bit, in the
    weights and in both moments, step after step, with weight decay on."""
    rng = np.random.default_rng(7)
    shapes = [(64, 64), (64, 4), (7,)]
    hypers = dict(weight_decay=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    params = [rng.normal(size=s) for s in shapes]
    state = OptimState.fresh(params, lr_base=0.01, **hypers)
    want, m, v = params, [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
    for step in range(1, 7):
        # gradients over many scales, with exact zeros, as BPTT gives through silent neurons
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-8, 4, size=s) for s in shapes]
        grads[0][rng.random(shapes[0]) < 0.3] = 0.0
        lr_now = 0.01 * (1.0 - step / 10)
        grad_bits = _bits(grads)
        params = adamw_step(params, grads, state, lr_now)
        want, m, v = adamw_step_frozen(want, grads, m, v, step, lr_now, **hypers)
        assert state.step == step
        for got, expect in ((params, want), (state.m, m), (state.v, v)):
            assert [a.shape for a in got] == shapes
            assert all(np.array_equal(a, b) for a, b in zip(_bits(got), _bits(expect)))
        assert all(np.array_equal(a, b) for a, b in zip(_bits(grads), grad_bits))


@pytest.mark.parametrize("sizes, batch", [((64, 64, 64, 4), 32), ((16, 64, 4), 8)])
def test_step_makes_no_per_weight_temporaries(sizes, batch):
    """One update as training runs it, on the previous step's weights and
    the backward's gradients, allocates the new weights and at most 1.25
    models' worth beside them (the per-layer rule took 3.8-4.7)."""
    spec = NetworkSpec(sizes, 10, LifParams())
    rng = np.random.default_rng(11)
    params = init_weights(spec, seed=3)
    state = OptimState.fresh(params, weight_decay=0.01)
    for _ in range(2):
        values, cache = lif_unroll(spec.lif, params, rng.uniform(0.0, 1.5, (batch, 10, sizes[0])))
        grads = lif_backward(spec.lif, params, cache, rng.normal(size=values.shape))
        if not state.step:
            params = adamw_step(params, grads, state, 0.01)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        new = adamw_step(params, grads, state, 0.01)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    model = sum(p.nbytes for p in new)
    assert peak - model <= 1.25 * model


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.001) == 0.001
    assert abs(cosine_lr(50, 100, 0.001) - 0.0005) < 1e-18
    assert abs(cosine_lr(99, 100, 0.001) - 0.5 * 0.001 * (1 + math.cos(math.pi * 99 / 100))) < 1e-18
    assert cosine_lr(99, 100, 0.001) < 2.5e-7  # near zero at the end


def test_cosine_monotone_and_bounded():
    lrs = [cosine_lr(e, 60, 0.003) for e in range(60)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    assert all(0.0 < lr <= 0.003 for lr in lrs)
    assert lrs[0] == 0.003
    assert all(lr < 0.003 for lr in lrs[1:])


def test_cosine_range_validation():
    with pytest.raises(ValueError, match="epoch"):
        cosine_lr(-1, 10, 0.001)
    with pytest.raises(ValueError, match="epoch"):
        cosine_lr(10, 10, 0.001)
    with pytest.raises(ValueError, match="total_epochs"):
        cosine_lr(0, 0, 0.001)
