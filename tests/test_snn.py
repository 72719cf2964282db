"""LIF dynamics: spike/surrogate exactness, step traces, unroll behavior,
and the numpy network pass against the per-op reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcsnn import autodiff as ad
from etcsnn import snn
from etcsnn.autodiff import (
    LifState,
    gradcheck_lif,
    initial_state,
    lif_step,
    lif_unroll_reference,
    spike_fn,
)
from etcsnn.snn import (
    LifParams,
    NetworkSpec,
    init_weights,
    lif_backward,
    lif_unroll,
    surrogate_factor,
)
from oracles import fd_gradient, lif_backward_frozen, lif_unroll_frozen, norm_rel_err

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
    values, _ = lif_unroll(spec.lif, [eye, eye], inputs)
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
    values, _ = lif_unroll(spec.lif, weights, inputs)
    np.testing.assert_array_equal(values, np.zeros((3, 4, 2)))


def test_unroll_zero_weights_give_zero_logits():
    spec = _spec(sizes=(3, 5, 2), steps=3)
    weights = [np.zeros((3, 5)), np.zeros((5, 2))]
    values, _ = lif_unroll(spec.lif, weights, np.random.default_rng(0).normal(size=(2, 3, 3)))
    np.testing.assert_array_equal(values, np.zeros((2, 3, 2)))


def test_gradients_vanish_outside_surrogate_support():
    """Potentials pushed strictly below v_th - 1/a => all weight grads exactly 0."""
    spec = _spec(sizes=(3, 4, 2), steps=3)
    rng = np.random.default_rng(5)
    w1 = rng.uniform(0.1, 0.5, size=(3, 4))  # positive weights
    w2 = rng.normal(size=(4, 2))
    inputs = -np.ones((2, 3, 3))  # negative currents keep v < 0 < v_th - 1/a
    values, cache = lif_unroll(spec.lif, [w1, w2], inputs)
    g1, g2 = lif_backward(spec.lif, [w1, w2], cache, np.ones_like(values))  # d sum(V)
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
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a, c))
    assert a[0].shape == (6, 4) and a[1].shape == (4, 2)
    assert np.all(np.abs(a[0]) <= np.sqrt(6.0 / 6))
    assert np.all(np.abs(a[1]) <= np.sqrt(6.0 / 4))


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
    values, cache = lif_unroll(spec.lif, weights, x)
    ref = lif_unroll_reference(spec, [ad.Tensor(w) for w in weights], _per_step(x))
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
    values, cache = lif_unroll(spec.lif, params, x)
    grads = lif_backward(spec.lif, params, cache, dv)
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


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("block_bytes", [snn._BLOCK_BYTES, 1], ids=["module-budget", "one-row"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    batch=st.sampled_from([1, *range(3, 41)]),
    steps=st.sampled_from([1, 2, 10]),
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    dims=st.tuples(st.integers(1, 8), st.integers(2, 5)),
    v_reset=st.sampled_from([0.0, 0.1]),
    tau_m=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
    v_th=st.sampled_from([-0.3, 0.0, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_frozen_batch_major_kernels_bitwise(
    block_bytes, batch, steps, hidden, dims, v_reset, tau_m, v_th, seed
):
    """The time-major, in-place loops against a frozen copy of the
    batch-major ones: values, weight gradients, charged potentials and
    spikes agree as raw bits, so signed zeros count too.  ``v_th <= 0``
    fires on negative potentials, and ``tau_m = 1`` drops the leak.  No
    case here spans two of the backward's row blocks at the module's
    budget; at a one-byte budget every row is a block of its own."""
    sizes = (dims[0], *hidden, dims[1])
    lif = LifParams(tau_m=tau_m, v_th=v_th, v_reset=v_reset)
    spec = _spec(sizes=sizes, steps=steps, lif=lif)
    rng = np.random.default_rng(seed)
    params = [rng.normal(0.3, 1.0, size=(a, b)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])]
    x = rng.uniform(-1.0, 2.0, size=(batch, steps, sizes[0]))
    dv = rng.normal(size=(batch, steps, sizes[-1])) * (rng.random((batch, steps, sizes[-1])) > 0.2)

    values, cache = lif_unroll(spec.lif, params, x)
    want_values, want_cache = lif_unroll_frozen(params, x, tau_m, v_th, v_reset)
    # the backward consumes its cache, so the cache is checked first
    for (_, charged, spikes), (_, want_charged, want_spikes) in zip(cache[:-1], want_cache):
        assert charged.shape == (steps, batch, want_charged.shape[2])  # time-major
        assert np.array_equal(_bits(charged.transpose(1, 0, 2)), _bits(want_charged))
        assert spikes.shape == want_spikes.shape  # batch-major: the next layer's input
        assert np.array_equal(_bits(spikes), _bits(want_spikes))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(snn, "_BLOCK_BYTES", block_bytes)
        grads = lif_backward(spec.lif, params, cache, dv)
    want_grads = lif_backward_frozen(params, want_cache, dv, tau_m, v_th, lif.surrogate_a)

    assert np.array_equal(_bits(values), _bits(want_values))
    # objective's whole-array sums follow memory order: batch-major, its own buffer
    assert values.flags.c_contiguous and values.flags.owndata
    assert len(grads) == len(want_grads)
    for got, want in zip(grads, want_grads):
        assert np.array_equal(_bits(got), _bits(want))


def test_output_layer_charges_a_negative_zero_drive_to_positive_zero():
    """A readout current of -5e-324 scales by 1/tau_m to a -0.0 drive, which
    the frozen kernel's first step, 0 * leak + drive, turns into +0.0; every
    later step keeps it, since -0.0 + leak * 0.0 is +0.0 too."""
    spec = _spec(sizes=(1, 1, 2), steps=3)
    params = [np.ones((1, 1)), np.full((1, 2), -5e-324)]
    x = np.ones((2, 3, 1))
    values, _ = lif_unroll(spec.lif, params, x)
    want_values, _ = lif_unroll_frozen(params, x, P.tau_m, P.v_th, P.v_reset)
    assert np.array_equal(_bits(values), _bits(want_values))
    assert not np.signbit(values).any() and not values.any()


@pytest.mark.parametrize("sizes,batch", [
    ((64, 64, 4), 32), ((20, 96, 4), 16), ((32, 48, 24, 4), 24), ((12, 32, 64, 3), 40),
    ((256, 256, 256, 4), 128),
])
def test_backward_consumes_its_cache_within_a_bounded_peak(sizes, batch):
    """BPTT runs in the forward's buffers: the backward clears every cache
    entry, leaves ``dv`` and the inputs as they were, and allocates at most
    2.5 (T, batch, width) arrays of its widest hidden layer beside the
    gradients it returns; at most half of one when that layer spans several
    row blocks, whose temporaries the block, not the layer, bounds."""
    spec = _spec(sizes=sizes, steps=10)
    rng = np.random.default_rng(23)
    params = init_weights(spec, seed=5)
    x = rng.uniform(0.0, 1.5, size=(batch, 10, sizes[0]))
    dv = rng.normal(size=(batch, 10, sizes[-1]))
    x_bits, dv_bits = _bits(x).copy(), _bits(dv).copy()
    _, cache = lif_unroll(spec.lif, params, x)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grads = lif_backward(spec.lif, params, cache, dv)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    layer = 10 * batch * max(sizes[1:-1]) * 8
    bound = 2.5 * layer if layer <= snn._BLOCK_BYTES else 0.5 * layer
    assert peak - sum(g.nbytes for g in grads) <= bound
    assert cache == [None] * len(params)
    assert np.array_equal(_bits(dv), dv_bits) and np.array_equal(_bits(x), x_bits)


@pytest.mark.parametrize("scale_of", ["inputs", "weights"])
def test_unroll_overflowing_potential_raises(scale_of):
    """An overflowed membrane potential still yields 0/1 spikes; the
    forward must catch it instead of passing finite spikes upward."""
    spec = _spec(sizes=(3, 4, 2), steps=3)
    w = np.full((3, 4), 1e308 if scale_of == "weights" else 1.0)
    x = np.full((2, 3, 3), 1e308 if scale_of == "inputs" else 1.0)
    with pytest.raises(ad.NonFiniteError, match="membrane"):
        lif_unroll(spec.lif, [w, np.ones((4, 2))], x)


def test_unroll_overflowing_output_potential_raises():
    """Finite spikes through huge output weights overflow the output layer."""
    spec = _spec(sizes=(3, 4, 2), steps=3)
    with pytest.raises(ad.NonFiniteError, match="output layer"):
        lif_unroll(spec.lif, [np.ones((3, 4)), np.full((4, 2), 1e308)], np.ones((2, 3, 3)))
