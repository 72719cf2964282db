"""LIF dynamics: spike/surrogate exactness, step traces, unroll behavior,
and the numpy network pass against the per-op reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcsnn import autodiff as ad
from etcsnn.snn import (
    LifParams,
    LifState,
    NetworkSpec,
    gradcheck_lif,
    init_weights,
    initial_state,
    lif_backward,
    lif_step,
    lif_unroll,
    lif_unroll_reference,
    spike_fn,
    surrogate_factor,
)
from oracles import fd_gradient, norm_rel_err

P = LifParams()  # tau_m=2, v_th=0.5, v_reset=0, a=2


def test_default_neuron_constants():
    assert P.tau_m == 2.0
    assert P.v_th == 0.5
    assert P.v_reset == 0.0
    assert P.surrogate_a == 2.0
    assert P.leak == 0.5


def test_spike_values_and_pseudo_derivative_examples():
    v = ad.Tensor([0.5, 1.1, 0.75, 0.49])
    s = spike_fn(v, P)
    np.testing.assert_array_equal(s.data, [1.0, 1.0, 1.0, 0.0])  # fires at equality
    ad.sum_all(s).backward()
    np.testing.assert_allclose(v.grad, [2.0, 0.0, 1.0, 1.96], rtol=0, atol=1e-15)


def test_spike_fires_at_exact_threshold():
    s = spike_fn(ad.Tensor([P.v_th]), P)
    assert s.data[0] == 1.0


def test_surrogate_matches_closed_form_exactly():
    rng = np.random.default_rng(3)
    v = rng.uniform(-2.0, 3.0, size=1000)
    got = surrogate_factor(v, P)
    a = P.surrogate_a
    dist = np.abs(v - P.v_th)
    want = np.where(dist > 1.0 / a, 0.0, a - a * a * dist)
    assert np.array_equal(got, want)
    # bit for bit, also at the band edges, for infinities and NaN
    edges = P.v_th + np.array([1.0, -1.0]) / a
    odd = np.concatenate([
        edges, np.nextafter(edges, 10.0), np.nextafter(edges, -10.0),
        [P.v_th, np.inf, -np.inf, np.nan, 1e308, -1e308],
    ])
    dist = np.abs(odd - P.v_th)
    with np.errstate(over="ignore", invalid="ignore"):
        want_odd = np.where(dist > 1.0 / a, 0.0, a - a * a * dist)
    assert np.array_equal(surrogate_factor(odd, P).view(np.int64), want_odd.view(np.int64))
    # and through the graph machinery, not just the helper
    x = ad.Tensor(v)
    ad.sum_all(spike_fn(x, P)).backward()
    assert np.array_equal(x.grad, want)


def test_surrogate_zero_outside_support():
    v = np.array([-0.01, 1.01, -5.0, 7.0])
    assert np.array_equal(surrogate_factor(v, P), np.zeros(4))


def _step_scalar(v, s, current, params=P):
    state = LifState(v=ad.Tensor([[v]]), s=ad.Tensor([[s]]))
    out = lif_step(state, ad.Tensor([[current]]), params)
    return out.v.item(), out.s.item()


def test_lif_step_subthreshold_trace():
    # v=0.2, I=0.6, tau_m=2: charged = 0.5*0.2 + 0.5*0.6 = 0.4 < 0.5 -> no spike
    v, s = _step_scalar(0.2, 0.0, 0.6)
    assert (v, s) == (0.4, 0.0)


def test_lif_step_spike_and_reset_trace():
    # v=0.4, I=0.8: charged = 0.6 >= 0.5 -> spike, stored v hard-reset to 0
    v, s = _step_scalar(0.4, 1.0, 0.8)
    assert (v, s) == (0.0, 1.0)


def test_lif_step_zero_state_zero_input_is_fixed_point():
    v, s = _step_scalar(0.0, 0.0, 0.0)
    assert (v, s) == (0.0, 0.0)


def test_lif_step_nonzero_reset_value():
    params = LifParams(v_reset=0.25)
    state = LifState(v=ad.Tensor([[0.4]]), s=ad.Tensor([[0.0]]))
    out = lif_step(state, ad.Tensor([[0.8]]), params)
    assert out.v.item() == 0.25


def test_lif_step_shape_mismatch():
    state = initial_state(2, 3, P)
    with pytest.raises(ad.ShapeMismatchError):
        lif_step(state, ad.Tensor(np.zeros((2, 4))), P)


def test_reset_blocks_gradient_through_spiked_entries():
    # One neuron spikes, one does not.  d(stored v)/d(charged v) should be
    # (1 - s): zero where it fired, one where it did not.
    state = LifState(v=ad.Tensor([[0.0, 0.0]]), s=ad.Tensor([[0.0, 0.0]]))
    current = ad.Tensor([[1.4, 0.2]])  # charged = [0.7, 0.1] -> spikes [1, 0]
    out = lif_step(state, current, P)
    ad.sum_all(out.v).backward()
    # d stored_v / d current = (1 - s) / tau_m
    np.testing.assert_array_equal(current.grad, [[0.0, 0.5]])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_spikes_binary_and_potentials_bounded(seed):
    rng = np.random.default_rng(seed)
    bound = 2.0
    state = initial_state(3, 4, P)
    lo = min(-bound, P.v_reset)
    hi = max(P.v_th + bound, bound)
    for _ in range(50):
        current = ad.Tensor(rng.uniform(-bound, bound, size=(3, 4)))
        state = lif_step(state, current, P)
        assert np.all(np.isin(state.s.data, (0.0, 1.0)))
        assert np.all(state.v.data >= lo - 1e-12)
        assert np.all(state.v.data <= hi + 1e-12)


# -- network-level -----------------------------------------------------------


def _spec(sizes=(2, 2, 2), steps=2, lif=P):
    return NetworkSpec(layer_sizes=tuple(sizes), timesteps=steps, lif=lif)


def test_unroll_hand_trace_identity_weights():
    """2-2-2 net, identity weights, constant input [1,1], two steps.

    By hand: hidden charges to exactly v_th each step (spikes both steps,
    reset keeps it at 0), so the integrator sees current [1,1] every step:
    V_1 = [0.5, 0.5], V_2 = [0.75, 0.75].
    """
    spec = _spec()
    eye = np.eye(2)
    inputs = np.ones((1, 2, 2))
    values, _ = lif_unroll(spec, [eye, eye], inputs)
    np.testing.assert_array_equal(values[:, 0], [[0.5, 0.5]])
    np.testing.assert_array_equal(values[:, 1], [[0.75, 0.75]])

    # independent scalar re-execution of the recurrence
    v_h = 0.0
    v_o = 0.0
    for t in range(2):
        v_h = 0.5 * v_h + 0.5 * 1.0
        s = 1.0 if v_h >= 0.5 else 0.0
        v_h = v_h * (1.0 - s)
        v_o = 0.5 * v_o + 0.5 * s
        assert values[0, t, 0] == v_o


def test_unroll_silent_hidden_layer_gives_zero_logits():
    spec = _spec(steps=4)
    weights = [np.eye(2) * 0.1, np.eye(2)]
    inputs = np.full((3, 4, 2), 0.2)  # charged potential never reaches 0.5
    values, _ = lif_unroll(spec, weights, inputs)
    np.testing.assert_array_equal(values, np.zeros((3, 4, 2)))


def test_unroll_zero_weights_give_zero_logits():
    spec = _spec(sizes=(3, 5, 2), steps=3)
    weights = [np.zeros((3, 5)), np.zeros((5, 2))]
    values, _ = lif_unroll(spec, weights, np.random.default_rng(0).normal(size=(2, 3, 3)))
    np.testing.assert_array_equal(values, np.zeros((2, 3, 2)))


def test_gradients_vanish_outside_surrogate_support():
    """Potentials pushed strictly below v_th - 1/a => all weight grads exactly 0."""
    spec = _spec(sizes=(3, 4, 2), steps=3)
    rng = np.random.default_rng(5)
    w1 = rng.uniform(0.1, 0.5, size=(3, 4))  # positive weights
    w2 = rng.normal(size=(4, 2))
    inputs = -np.ones((2, 3, 3))  # negative currents keep v < 0 < v_th - 1/a
    values, cache = lif_unroll(spec, [w1, w2], inputs)
    g1, g2 = lif_backward(spec, [w1, w2], cache, np.ones_like(values))  # d sum(V)
    assert np.array_equal(g1, np.zeros((3, 4)))
    assert np.array_equal(g2, np.zeros((4, 2)))


def _per_step(x):
    return [ad.Tensor(x[:, t]) for t in range(x.shape[1])]


def _reference_mean(spec, weights, x, spike=None):
    outs = lif_unroll_reference(spec, weights, _per_step(x), spike=spike)
    acc = outs[0]
    for v in outs[1:]:
        acc = ad.add(acc, v)
    return ad.scale(ad.sum_all(acc), 1.0 / acc.data.size)


def test_identity_spike_hook_makes_network_linear():
    spec = _spec(sizes=(3, 4, 2), steps=3)
    rng = np.random.default_rng(11)
    weights = [ad.Tensor(rng.normal(size=(3, 4))), ad.Tensor(rng.normal(size=(4, 2)))]
    x1 = rng.normal(size=(2, 3, 3))
    x2 = rng.normal(size=(2, 3, 3))

    def run(x):
        outs = lif_unroll_reference(spec, weights, _per_step(x), spike=lambda v: v)
        return np.stack([v.data for v in outs], axis=1)

    np.testing.assert_allclose(run(x1) + run(x2), run(x1 + x2), rtol=1e-12, atol=1e-12)


def test_identity_spike_hook_gradients_match_fd():
    spec = _spec(sizes=(2, 3, 2), steps=2)
    rng = np.random.default_rng(13)
    w_vals = [rng.normal(size=(2, 3)), rng.normal(size=(3, 2))]
    inputs = rng.normal(size=(1, 2, 2))

    weights = [ad.Tensor(w) for w in w_vals]
    _reference_mean(spec, weights, inputs, spike=lambda v: v).backward()

    for i in range(2):
        def f(wv, i=i):
            trial = [ad.Tensor(w) for w in w_vals]
            trial[i] = ad.Tensor(wv)
            return _reference_mean(spec, trial, inputs, spike=lambda v: v).item()

        fd = fd_gradient(f, w_vals[i].copy(), h=1e-6)
        assert norm_rel_err(weights[i].grad, fd) < 1e-6


def test_init_weights_deterministic_and_bounded():
    spec = _spec(sizes=(6, 4, 2), steps=1)
    a = init_weights(spec, seed=9)
    b = init_weights(spec, seed=9)
    c = init_weights(spec, seed=10)
    for wa, wb in zip(a, b):
        assert np.array_equal(wa.data, wb.data)
    assert any(not np.array_equal(wa.data, wc.data) for wa, wc in zip(a, c))
    assert a[0].shape == (6, 4) and a[1].shape == (4, 2)
    assert np.all(np.abs(a[0].data) <= np.sqrt(6.0 / 6))
    assert np.all(np.abs(a[1].data) <= np.sqrt(6.0 / 4))


def test_network_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(layer_sizes=(4, 2), timesteps=2)  # no hidden layer
    with pytest.raises(ValueError):
        NetworkSpec(layer_sizes=(4, 3, 1), timesteps=2)  # single class
    with pytest.raises(ValueError):
        NetworkSpec(layer_sizes=(4, 3, 2), timesteps=0)
    with pytest.raises(ValueError):
        LifParams(tau_m=0.5)
    with pytest.raises(ValueError):
        LifParams(surrogate_a=0.0)


def test_unroll_shape_policing():
    spec = _spec(sizes=(3, 4, 2), steps=2)
    weights = [np.zeros((3, 4)), np.zeros((4, 2))]
    with pytest.raises(ad.ShapeMismatchError, match="timesteps"):
        lif_unroll(spec, weights, np.zeros((1, 5, 3)))
    with pytest.raises(ad.ShapeMismatchError, match="dim"):
        lif_unroll(spec, weights, np.zeros((1, 2, 7)))
    with pytest.raises(ad.ShapeMismatchError, match="weight"):
        lif_unroll(spec, [weights[0], np.zeros((5, 2))], np.zeros((1, 2, 3)))


# -- the numpy pass vs the per-op reference ----------------------------------------


def test_gradcheck_lif_matches_reference():
    report = gradcheck_lif(seed=0, cases=60)
    assert report.passed, report
    assert report.max_rel_err <= 1e-12
    assert report.band_fraction > 0.3  # most gradients pass through the surrogate


@pytest.mark.parametrize("v_reset", [0.0, 0.2])
def test_fused_values_bitwise_equal_reference(v_reset):
    """Same arithmetic per step, so the forward agrees exactly, spikes included."""
    spec = _spec(sizes=(16, 12, 12, 4), steps=10, lif=LifParams(v_reset=v_reset))
    rng = np.random.default_rng(17)
    weights = init_weights(spec, seed=3)
    x = rng.uniform(0.0, 1.5, size=(8, 10, 16))
    values, cache = lif_unroll(spec, [w.data for w in weights], x)
    ref = lif_unroll_reference(spec, weights, _per_step(x))
    assert np.array_equal(values, np.stack([v.data for v in ref], axis=1))
    # the cache holds each layer's input, and the hidden layers' spikes feed the next
    assert cache[0][0] is x and cache[-1][1:] == (None, None)
    for below, above in zip(cache, cache[1:]):
        assert above[0] is below[2]


def test_backward_matches_reference_on_a_fixed_network():
    """Weight gradients of a random readout, two hidden layers and a nonzero
    reset: numpy BPTT vs the per-op tape, which sums each weight gradient
    over the steps in another order."""
    spec = _spec(sizes=(5, 6, 4, 3), steps=7, lif=LifParams(v_reset=0.1))
    rng = np.random.default_rng(19)
    params = [
        rng.normal(0.5, 1.0, size=(a, b)) / np.sqrt(a) for a, b in ((5, 6), (6, 4), (4, 3))
    ]
    x = rng.uniform(0.0, 2.0, size=(3, 7, 5))
    dv = rng.normal(size=(3, 7, 3))
    values, cache = lif_unroll(spec, params, x)
    grads = lif_backward(spec, params, cache, dv)
    weights = [ad.Tensor(w) for w in params]
    outs = lif_unroll_reference(spec, weights, _per_step(x))
    total = ad.sum_all(ad.mul(ad.Tensor(dv[:, 0]), outs[0]))
    for t in range(1, 7):
        total = ad.add(total, ad.sum_all(ad.mul(ad.Tensor(dv[:, t]), outs[t])))
    total.backward()
    assert [g.shape for g in grads] == [w.shape for w in params]
    assert all(np.any(g != 0.0) for g in grads)
    for g, w in zip(grads, weights):
        assert norm_rel_err(g, w.grad) <= 1e-12


@pytest.mark.parametrize("scale_of", ["inputs", "weights"])
def test_unroll_overflowing_potential_raises(scale_of):
    """An overflowed membrane potential still yields 0/1 spikes; the
    forward must catch it instead of passing finite spikes upward."""
    spec = _spec(sizes=(3, 4, 2), steps=3)
    w = np.full((3, 4), 1e308 if scale_of == "weights" else 1.0)
    x = np.full((2, 3, 3), 1e308 if scale_of == "inputs" else 1.0)
    with pytest.raises(ad.NonFiniteError, match="membrane"):
        lif_unroll(spec, [w, np.ones((4, 2))], x)


def test_unroll_overflowing_output_potential_raises():
    """Finite spikes through huge output weights overflow the output layer."""
    spec = _spec(sizes=(3, 4, 2), steps=3)
    with pytest.raises(ad.NonFiniteError, match="output layer"):
        lif_unroll(spec, [np.ones((3, 4)), np.full((4, 2), 1e308)], np.ones((2, 3, 3)))
