"""Objectives and gradient oracles against brute-force references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etcsnn import autodiff as ad
from etcsnn.losses import (
    LOSS_MODES,
    EtcConfig,
    TimestepOutputs,
    _softmax_np,
    _tape_objective,
    ce_mean_loss,
    etc_loss,
    gradcheck_ce,
    gradcheck_etc,
    gradcheck_per_timestep_ce,
    gradcheck_suite,
    kl_metric_values,
    objective,
    per_timestep_ce_loss,
)
from oracles import (
    ce_mean_reference,
    etc_loss_reference,
    kl_metric_reference,
    mean_entropy_reference,
    norm_rel_err,
    random_loss_instance,
    softmax_row,
)


def outputs_from(values):
    return TimestepOutputs.from_values(np.asarray(values, dtype=np.float64))


def onehot(rows, classes):
    y = np.zeros((len(rows), classes))
    y[np.arange(len(rows)), rows] = 1.0
    return y


# -- ce_mean_loss -------------------------------------------------------------


def test_ce_uniform_logits_is_log_classes():
    outs = outputs_from(np.zeros((1, 2, 2)))
    loss = ce_mean_loss(outs, onehot([0], 2))
    assert abs(loss.item() - math.log(2.0)) < 1e-15


def test_ce_confident_correct_is_tiny():
    # mean potential [10, -10] with label 0: loss = log(1 + e^-20)
    vals = np.array([[[10.0, -10.0]], [[10.0, -10.0]]]).reshape(1, 2, 2)
    outs = outputs_from(vals)
    loss = ce_mean_loss(outs, onehot([0], 2))
    # log(1+x) rather than log1p inside the graph: accurate to ~eps absolute
    assert abs(loss.item() - math.log1p(math.exp(-20.0))) < 1e-15


def test_ce_matches_bruteforce_reference():
    rng = np.random.default_rng(2)
    for _ in range(20):
        values, labels = random_loss_instance(rng)
        outs = outputs_from(values)
        got = ce_mean_loss(outs, labels).item()
        assert abs(got - ce_mean_reference(values, labels)) < 1e-10


def test_ce_rejects_bad_labels():
    outs = outputs_from(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="one-hot"):
        ce_mean_loss(outs, np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="one-hot"):
        ce_mean_loss(outs, np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        ce_mean_loss(outs, np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_timestep_outputs_validation():
    with pytest.raises(ValueError):
        TimestepOutputs(ad.Tensor(np.zeros((2, 0, 3))))  # no timesteps
    with pytest.raises(ValueError):
        TimestepOutputs(ad.Tensor(np.zeros((2, 3, 1))))  # single class
    with pytest.raises(ValueError):
        TimestepOutputs(ad.Tensor(np.zeros((2, 3))))  # not (batch, T, classes)


# -- per-timestep tempered probabilities ---------------------------------------


# ``_softmax_np(values / tau)`` gives the consistency term's frozen targets.


def test_per_timestep_probs_rows_sum_to_one():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(3, 4, 5)) * 10
    p = _softmax_np(values / 4.0)
    assert p.shape == (3, 4, 5)
    np.testing.assert_allclose(p.sum(axis=-1), np.ones((3, 4)), atol=1e-9)
    for b in range(3):
        for t in range(4):
            np.testing.assert_allclose(p[b, t], softmax_row(values[b, t], 4.0), rtol=1e-12)


def test_per_timestep_probs_temperature_example():
    values = np.array([4.0, 0.0]).reshape(1, 1, 2)
    p = _softmax_np(values / 4.0)
    np.testing.assert_allclose(
        p[:, 0], [[math.e / (math.e + 1.0), 1.0 / (math.e + 1.0)]], atol=1e-15
    )


# -- etc_loss -----------------------------------------------------------------


def test_etc_uniform_distributions_give_log_classes():
    # identical per-step distributions: loss = cross-entropy(P, P) = H(P) = ln 2
    outs = outputs_from(np.zeros((2, 3, 2)))
    cfg = EtcConfig(tau=4.0, lam=1.0)
    assert abs(etc_loss(outs, cfg).item() - math.log(2.0)) < 1e-12


def test_etc_two_step_example_matches_bruteforce():
    values = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 2, 2)
    outs = outputs_from(values)
    cfg = EtcConfig(tau=4.0, lam=1.0)
    assert abs(etc_loss(outs, cfg).item() - etc_loss_reference(values, 4.0)) < 1e-12


def test_etc_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(25):
        values, _ = random_loss_instance(rng)
        tau = float(rng.uniform(0.5, 8.0))
        outs = outputs_from(values)
        got = etc_loss(outs, EtcConfig(tau=tau, lam=1.0)).item()
        assert abs(got - etc_loss_reference(values, tau)) < 1e-12


def test_etc_needs_two_steps():
    with pytest.raises(ValueError, match="2 timesteps"):
        etc_loss(outputs_from(np.zeros((1, 1, 2))), EtcConfig())


def test_etc_gradient_blocked_through_targets():
    """Targets are frozen: at identical steps the gradient is exactly zero
    (the pull of each pair cancels), which only holds if no gradient flows
    through the stop-gradient copies."""
    outs = outputs_from(np.tile(np.array([1.0, -1.0, 0.5]), (2, 3, 1)))
    loss = etc_loss(outs, EtcConfig(tau=2.0, lam=1.0))
    loss.backward()
    np.testing.assert_allclose(outs.v.grad, np.zeros_like(outs.v.grad), atol=1e-16)


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, (2, 3, 4), elements=st.floats(-20, 20)),
    st.floats(-30, 30),
)
def test_etc_shift_invariance(values, c):
    cfg = EtcConfig(tau=4.0, lam=1.0)
    base = etc_loss(outputs_from(values), cfg).item()
    shifted = etc_loss(outputs_from(values + c), cfg).item()
    assert abs(base - shifted) < 1e-10


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (2, 4, 3), elements=st.floats(-15, 15)), st.permutations(range(4)))
def test_etc_timestep_permutation_invariance(values, perm):
    cfg = EtcConfig(tau=3.0, lam=1.0)
    base = etc_loss(outputs_from(values), cfg).item()
    permuted = etc_loss(outputs_from(values[:, perm, :]), cfg).item()
    assert abs(base - permuted) < 1e-12


# -- kl_metric_values ---------------------------------------------------------


def test_kl_metric_example():
    # P_1 = [0.75, 0.25], P_2 = [0.25, 0.75] at tau=4: symmetric pair, each
    # direction KL = 0.5 * ln 3.
    tau = 4.0
    v1 = tau * np.log([0.75, 0.25])
    v2 = tau * np.log([0.25, 0.75])
    values = np.stack([v1, v2]).reshape(1, 2, 2)
    got = kl_metric_values(values, tau)
    assert abs(got - 0.5 * math.log(3.0)) < 1e-12


def test_kl_metric_zero_iff_identical():
    same = np.tile(np.array([0.3, -0.8, 1.1]), (2, 4, 1))
    assert kl_metric_values(same, 4.0) <= 1e-12
    perturbed = same.copy()
    perturbed[:, 2, :] += np.array([0.5, -0.2, 0.0])
    assert kl_metric_values(perturbed, 4.0) > 1e-12


def test_kl_metric_matches_bruteforce():
    rng = np.random.default_rng(8)
    for _ in range(20):
        values, _ = random_loss_instance(rng)
        tau = float(rng.uniform(0.5, 8.0))
        assert abs(kl_metric_values(values, tau) - kl_metric_reference(values, tau)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (2, 3, 3), elements=st.floats(-20, 20)))
def test_kl_metric_nonnegative(values):
    assert kl_metric_values(values, 4.0) >= 0.0


def test_etc_loss_equals_kl_plus_mean_entropy():
    """etc_loss - mean target entropy == kl metric (Gibbs identity)."""
    rng = np.random.default_rng(10)
    for _ in range(100):
        values, _ = random_loss_instance(rng)
        tau = float(rng.uniform(0.5, 8.0))
        loss = etc_loss(outputs_from(values), EtcConfig(tau=tau, lam=1.0)).item()
        identity_gap = loss - mean_entropy_reference(values, tau) - kl_metric_values(values, tau)
        assert abs(identity_gap) < 1e-10
        # Gibbs floor: the loss can never undercut the target entropy
        assert loss >= mean_entropy_reference(values, tau) - 1e-12


# -- the training objective (losses.objective) ------------------------------------


def _tape(values, labels, mode, cfg):
    """The objective built from the tape losses: (V.grad, total, ce, etc)."""
    outs = outputs_from(values)
    total, ce, etc = _tape_objective(outs, labels, mode, cfg)
    total.backward()
    return outs.v.grad, total.item(), ce, etc


def test_batch_loss_recomposes():
    rng = np.random.default_rng(12)
    values, labels = random_loss_instance(rng)
    cfg = EtcConfig(tau=4.0, lam=1.0)
    dv, total, ce_val, etc_val = objective(values, labels, "ce_plus_etc", cfg)
    ce = ce_mean_loss(outputs_from(values), labels).item()
    etc = etc_loss(outputs_from(values), cfg).item()
    assert (ce_val, etc_val) == (ce, etc)
    assert abs(total - (ce + cfg.lam * cfg.tau**2 * etc)) < 1e-12
    assert np.array_equal(dv, _tape(values, labels, "ce_plus_etc", cfg)[0])


def test_batch_loss_lambda_zero_is_ce_bitwise():
    rng = np.random.default_rng(14)
    values, labels = random_loss_instance(rng)
    cfg = EtcConfig(tau=4.0, lam=0.0)
    dv, total, _, etc_val = objective(values, labels, "ce_plus_etc", cfg)
    ce = ce_mean_loss(outputs_from(values), labels).item()
    assert total == ce and etc_val == 0.0
    assert np.array_equal(dv, objective(values, labels, "ce_only", cfg)[0])


def test_batch_loss_single_step_is_ce_bitwise():
    rng = np.random.default_rng(16)
    values = rng.normal(size=(3, 1, 4))
    labels = onehot([0, 1, 2], 4)
    dv, total, _, etc_val = objective(values, labels, "ce_plus_etc", EtcConfig())
    ce = ce_mean_loss(outputs_from(values), labels).item()
    assert total == ce and etc_val == 0.0
    assert np.array_equal(dv, objective(values, labels, "ce_only", EtcConfig())[0])


@pytest.mark.parametrize("mode", LOSS_MODES)
def test_objective_equals_tape_bitwise(mode):
    """Same ops in the same order as the tape: gradient and logged losses
    agree bit for bit, T=1 and lam=0 included."""
    rng = np.random.default_rng(26)
    for i in range(30):
        values, labels = random_loss_instance(rng)
        if i % 5 == 0:
            values = values[:, :1]
        cfg = EtcConfig(tau=float(rng.uniform(0.5, 8.0)), lam=float(rng.uniform(0.0, 4.0)))
        if i % 7 == 0:
            cfg = EtcConfig(tau=cfg.tau, lam=0.0)
        dv, *logged = objective(values, labels, mode, cfg)
        want_dv, *want = _tape(values, labels, mode, cfg)
        assert np.array_equal(dv, want_dv)
        assert logged == want


def test_objective_rejects_a_non_finite_loss():
    values = np.full((2, 3, 2), 1e308)  # the time mean overflows
    values[:, :, 1] = 0.0
    with pytest.raises(ad.NonFiniteError, match="loss"):
        with np.errstate(over="ignore", invalid="ignore"):
            objective(values, onehot([0, 1], 2), "ce_only", EtcConfig())


def test_per_timestep_ce_matches_bruteforce():
    rng = np.random.default_rng(28)
    for _ in range(20):
        values, labels = random_loss_instance(rng)
        got = per_timestep_ce_loss(outputs_from(values), labels).item()
        batch, steps, _ = values.shape
        want = sum(
            -math.log(softmax_row(values[b, t])[int(np.argmax(labels[b]))])
            for b in range(batch)
            for t in range(steps)
        ) / (batch * steps)
        assert abs(got - want) < 1e-10


def test_gradcheck_per_timestep_ce_random_instances():
    rng = np.random.default_rng(30)
    for _ in range(30):
        values, labels = random_loss_instance(rng)
        report = gradcheck_per_timestep_ce(outputs_from(values), labels)
        assert report.passed, report


def test_etc_config_validation():
    with pytest.raises(ValueError):
        EtcConfig(tau=0.0)
    with pytest.raises(ValueError):
        EtcConfig(lam=-0.1)


# -- gradient oracles ---------------------------------------------------------


def test_gradcheck_ce_zero_logit_example():
    # all-zero logits, y=[1,0], T=2, batch=1: grad per step = [-.25, .25]
    outs = outputs_from(np.zeros((1, 2, 2)))
    labels = onehot([0], 2)
    report = gradcheck_ce(outs, labels)
    assert report.passed
    np.testing.assert_allclose(outs.v.grad, [[[-0.25, 0.25], [-0.25, 0.25]]], atol=1e-15)


def test_gradcheck_ce_random_instances():
    rng = np.random.default_rng(18)
    for _ in range(30):
        values, labels = random_loss_instance(rng)
        report = gradcheck_ce(outputs_from(values), labels)
        assert report.passed, report


def test_ce_gradient_matches_fd():
    rng = np.random.default_rng(20)
    values, labels = random_loss_instance(rng)
    outs = outputs_from(values)
    ce_mean_loss(outs, labels).backward()

    from oracles import fd_gradient

    auto = outs.v.grad
    fd = fd_gradient(
        lambda arr: ce_mean_loss(TimestepOutputs.from_values(arr), labels).item(),
        values.copy(),
    )
    assert norm_rel_err(auto, fd) < 1e-5


def test_gradcheck_etc_identical_steps_give_zero_gradient():
    # the true gradient is exactly zero here, so relative error against the
    # closed form (also zero) degenerates -- assert absolutely instead
    outs = outputs_from(np.tile(np.array([0.4, -1.0]), (2, 3, 1)))
    gradcheck_etc(outs, EtcConfig(tau=4.0, lam=1.0), with_fd=False)
    np.testing.assert_allclose(outs.v.grad, np.zeros_like(outs.v.grad), atol=1e-15)


def test_gradcheck_etc_random_instances():
    rng = np.random.default_rng(22)
    for _ in range(10):
        values, _ = random_loss_instance(rng)
        cfg = EtcConfig(tau=float(rng.uniform(0.5, 8.0)), lam=float(rng.uniform(0.1, 4.0)))
        report = gradcheck_etc(outputs_from(values), cfg)
        assert report.passed, report
        assert report.fd_max_rel_err < 1e-5


def test_etc_gradient_scales_linearly_with_lambda():
    rng = np.random.default_rng(24)
    values, _ = random_loss_instance(rng)
    outs1 = outputs_from(values)
    ad.scale(etc_loss(outs1, EtcConfig(tau=4.0, lam=1.0)), 1.0 * 16.0).backward()
    outs2 = outputs_from(values)
    ad.scale(etc_loss(outs2, EtcConfig(tau=4.0, lam=2.0)), 2.0 * 16.0).backward()
    assert np.array_equal(2.0 * outs1.v.grad, outs2.v.grad)


def test_gradcheck_suite_passes():
    report = gradcheck_suite(seed=0, cases=25)
    assert report.passed, report
    assert report.cases == 25
    assert report.ptce_max_rel_err < 1e-10
    assert report.objective_max_rel_err <= 1e-12
