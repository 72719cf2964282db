"""Objectives and gradient oracles against brute-force references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etcsnn import autodiff as ad
from etcsnn import losses
from etcsnn.autodiff import (
    gradcheck_ce,
    gradcheck_complex_step,
    gradcheck_etc,
    gradcheck_per_timestep_ce,
    gradcheck_suite,
)
from etcsnn.losses import LOSS_MODES, EtcConfig, _softmax_np, kl_metric_values, objective
from oracles import (
    ce_mean_reference,
    etc_loss_reference,
    fd_gradient,
    kl_metric_reference,
    mean_entropy_reference,
    norm_rel_err,
    random_loss_instance,
    softmax_row,
)


def onehot(rows, classes):
    y = np.zeros((len(rows), classes))
    y[np.arange(len(rows)), rows] = 1.0
    return y


def ce_of(values, labels):
    """``objective``'s logged mean-CE."""
    return objective(values, labels, "ce_only", EtcConfig())[2]


def etc_of(values, tau):
    """``objective``'s logged consistency term at temperature ``tau``; the
    labels do not enter it."""
    labels = onehot([0] * values.shape[0], values.shape[2])
    return objective(values, labels, "ce_plus_etc", EtcConfig(tau=tau, lam=1.0))[3]


# -- mean-CE --------------------------------------------------------------------


def test_ce_uniform_logits_is_log_classes():
    assert abs(ce_of(np.zeros((1, 2, 2)), onehot([0], 2)) - math.log(2.0)) < 1e-15


def test_ce_confident_correct_is_tiny():
    # mean potential [10, -10] with label 0: loss = log(1 + e^-20)
    vals = np.array([[[10.0, -10.0]], [[10.0, -10.0]]]).reshape(1, 2, 2)
    # log(1+x) rather than log1p inside the loss: accurate to ~eps absolute
    assert abs(ce_of(vals, onehot([0], 2)) - math.log1p(math.exp(-20.0))) < 1e-15


def test_ce_matches_bruteforce_reference():
    rng = np.random.default_rng(2)
    for _ in range(20):
        values, labels = random_loss_instance(rng)
        assert abs(ce_of(values, labels) - ce_mean_reference(values, labels)) < 1e-10


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


# -- the consistency term ---------------------------------------------------------


def test_etc_uniform_distributions_give_log_classes():
    # identical per-step distributions: loss = cross-entropy(P, P) = H(P) = ln 2
    assert abs(etc_of(np.zeros((2, 3, 2)), 4.0) - math.log(2.0)) < 1e-12


def test_etc_two_step_example_matches_bruteforce():
    values = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 2, 2)
    assert abs(etc_of(values, 4.0) - etc_loss_reference(values, 4.0)) < 1e-12


def test_etc_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(25):
        values, _ = random_loss_instance(rng)
        tau = float(rng.uniform(0.5, 8.0))
        assert abs(etc_of(values, tau) - etc_loss_reference(values, tau)) < 1e-12


def test_etc_needs_two_steps():
    """At T = 1 there is no pair of steps: the engine and the complex-safe
    loss both log a consistency term of 0 in mode ``ce_plus_etc``."""
    values, labels = np.zeros((1, 1, 2)), onehot([0], 2)
    assert objective(values, labels, "ce_plus_etc", EtcConfig())[3] == 0.0
    assert ad.complex_loss(values, labels, "ce_plus_etc", EtcConfig())[2] == 0.0


def test_etc_gradient_blocked_through_targets():
    """Targets are frozen: at identical steps the gradient is exactly zero
    (the pull of each pair cancels), which only holds if no gradient flows
    through the targets."""
    values = np.tile(np.array([1.0, -1.0, 0.5]), (2, 3, 1))
    grad = losses._consistency(values, 2.0, 1.0)[1]
    np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-16)


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, (2, 3, 4), elements=st.floats(-20, 20)),
    st.floats(-30, 30),
)
def test_etc_shift_invariance(values, c):
    assert abs(etc_of(values, 4.0) - etc_of(values + c, 4.0)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (2, 4, 3), elements=st.floats(-15, 15)), st.permutations(range(4)))
def test_etc_timestep_permutation_invariance(values, perm):
    assert abs(etc_of(values, 3.0) - etc_of(values[:, perm, :], 3.0)) < 1e-12


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
    """consistency term - mean target entropy == kl metric (Gibbs identity)."""
    rng = np.random.default_rng(10)
    for _ in range(100):
        values, _ = random_loss_instance(rng)
        tau = float(rng.uniform(0.5, 8.0))
        loss = etc_of(values, tau)
        identity_gap = loss - mean_entropy_reference(values, tau) - kl_metric_values(values, tau)
        assert abs(identity_gap) < 1e-10
        # Gibbs floor: the loss can never undercut the target entropy
        assert loss >= mean_entropy_reference(values, tau) - 1e-12


# -- the training objective (losses.objective) ------------------------------------


def test_batch_loss_recomposes():
    """The total is ce + lam * tau^2 * etc, and ``dv`` is the consistency
    part's gradient plus the mean-CE one, bit for bit."""
    rng = np.random.default_rng(12)
    values, labels = random_loss_instance(rng)
    cfg = EtcConfig(tau=4.0, lam=1.0)
    dv, total, ce_val, etc_val = objective(values, labels, "ce_plus_etc", cfg)
    ce_dv, ce, _, _ = objective(values, labels, "ce_only", cfg)
    etc, etc_grad = losses._consistency(values, cfg.tau, cfg.lam * cfg.tau**2)
    assert (ce_val, etc_val) == (ce, etc)
    assert abs(total - (ce + cfg.lam * cfg.tau**2 * etc)) < 1e-12
    assert np.array_equal(dv, etc_grad + ce_dv)


def test_batch_loss_lambda_zero_is_ce_bitwise():
    rng = np.random.default_rng(14)
    values, labels = random_loss_instance(rng)
    cfg = EtcConfig(tau=4.0, lam=0.0)
    dv, total, _, etc_val = objective(values, labels, "ce_plus_etc", cfg)
    assert total == ce_of(values, labels) and etc_val == 0.0
    assert np.array_equal(dv, objective(values, labels, "ce_only", cfg)[0])


def test_batch_loss_single_step_is_ce_bitwise():
    rng = np.random.default_rng(16)
    values = rng.normal(size=(3, 1, 4))
    labels = onehot([0, 1, 2], 4)
    dv, total, _, etc_val = objective(values, labels, "ce_plus_etc", EtcConfig())
    assert total == ce_of(values, labels) and etc_val == 0.0
    assert np.array_equal(dv, objective(values, labels, "ce_only", EtcConfig())[0])


@pytest.mark.parametrize("mode", LOSS_MODES)
def test_objective_matches_complex_step(mode):
    """Entry by entry, ``dv`` is the complex step of the loss written from
    the formulas, and the logged losses are its real part, T=1 and lam=0
    included."""
    rng = np.random.default_rng(26)
    h = 1e-30
    for i in range(30):
        values, labels = random_loss_instance(rng)
        if i % 5 == 0:
            values = values[:, :1]
        cfg = EtcConfig(tau=float(rng.uniform(0.5, 8.0)), lam=float(rng.uniform(0.0, 4.0)))
        if i % 7 == 0:
            cfg = EtcConfig(tau=cfg.tau, lam=0.0)
        dv, *logged = objective(values, labels, mode, cfg)
        want_dv = np.zeros_like(values)
        for j in np.ndindex(values.shape):
            probe = values.astype(complex)
            probe[j] += 1j * h
            want_dv[j] = ad.complex_loss(probe, labels, mode, cfg)[0].imag / h
        want = [float(x.real) for x in ad.complex_loss(values, labels, mode, cfg)]
        assert norm_rel_err(dv, want_dv) <= 1e-12
        assert norm_rel_err(logged, want) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(2, 4),
    st.sampled_from([0.5, 8.0]),
    st.sampled_from([0.0, 0.5, 4.0]),
    st.data(),
)
def test_objective_matches_complex_step_off_the_suite_draws(batch, steps, classes, tau, lam, data):
    """Draws ``gradcheck_suite`` never makes: T = 1, lam = 0, two classes,
    logits up to +-50, tau at the ends of its range."""
    values = data.draw(arrays(np.float64, (batch, steps, classes), elements=st.floats(-50, 50)))
    rows = data.draw(st.lists(st.integers(0, classes - 1), min_size=batch, max_size=batch))
    report = gradcheck_complex_step(values, onehot(rows, classes), EtcConfig(tau=tau, lam=lam))
    assert report.max_rel_err <= 1e-12, report


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
        got = objective(values, labels, "per_timestep_ce", EtcConfig())[1]
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
        report = gradcheck_per_timestep_ce(values, labels)
        assert report.passed, report


def test_etc_config_validation():
    with pytest.raises(ValueError):
        EtcConfig(tau=0.0)
    with pytest.raises(ValueError):
        EtcConfig(lam=-0.1)


# -- gradient oracles ---------------------------------------------------------


def test_gradcheck_ce_zero_logit_example():
    # all-zero logits, y=[1,0], T=2, batch=1: grad per step = [-.25, .25]
    values = np.zeros((1, 2, 2))
    labels = onehot([0], 2)
    assert gradcheck_ce(values, labels).passed
    dv = objective(values, labels, "ce_only", EtcConfig())[0]
    np.testing.assert_allclose(dv, [[[-0.25, 0.25], [-0.25, 0.25]]], atol=1e-15)


def test_gradcheck_ce_random_instances():
    rng = np.random.default_rng(18)
    for _ in range(30):
        values, labels = random_loss_instance(rng)
        report = gradcheck_ce(values, labels)
        assert report.passed, report


def test_ce_gradient_matches_fd():
    rng = np.random.default_rng(20)
    values, labels = random_loss_instance(rng)
    dv = objective(values, labels, "ce_only", EtcConfig())[0]
    fd = fd_gradient(lambda arr: ce_of(arr, labels), values.copy())
    assert norm_rel_err(dv, fd) < 1e-5


def test_gradcheck_etc_identical_steps_give_zero_gradient():
    # the true gradient is exactly zero here, so relative error against the
    # closed form (also zero) degenerates -- assert absolutely instead: the
    # consistency term adds nothing to the engine's dv
    values = np.tile(np.array([0.4, -1.0]), (2, 3, 1))
    labels = onehot([0, 1], 2)
    cfg = EtcConfig(tau=4.0, lam=1.0)
    dv = objective(values, labels, "ce_plus_etc", cfg)[0]
    np.testing.assert_allclose(dv, objective(values, labels, "ce_only", cfg)[0], rtol=0, atol=1e-15)


def test_gradcheck_etc_random_instances():
    rng = np.random.default_rng(22)
    for _ in range(10):
        values, _ = random_loss_instance(rng)
        cfg = EtcConfig(tau=float(rng.uniform(0.5, 8.0)), lam=float(rng.uniform(0.1, 4.0)))
        closed, fd = gradcheck_etc(values, cfg)
        assert closed.passed and fd.passed, (closed, fd)
        assert fd.max_rel_err < 1e-5


def test_etc_gradient_scales_linearly_with_lambda():
    rng = np.random.default_rng(24)
    values, _ = random_loss_instance(rng)
    grad1 = losses._consistency(values, 4.0, 1.0 * 16.0)[1]
    grad2 = losses._consistency(values, 4.0, 2.0 * 16.0)[1]
    assert np.array_equal(2.0 * grad1, grad2)


def test_gradcheck_suite_passes():
    reports = gradcheck_suite(seed=0, cases=25)
    assert all(r.passed for r in reports), reports
    assert all(r.cases == 25 for r in reports)
    errs = {r.name: r.max_rel_err for r in reports if not r.fd}
    assert errs["per_timestep_ce"] < 1e-10
    assert errs["complex_step"] <= 1e-12


# -- no oracle passes vacuously ------------------------------------------------------


def _nudge(grad):
    """``grad`` with its largest entry moved by one part in 1e9."""
    grad = grad.copy()
    grad[np.unravel_index(np.argmax(np.abs(grad)), grad.shape)] *= 1.0 + 1e-9
    return grad


ORACLES = {
    "complex_step": lambda values, labels, cfg: [gradcheck_complex_step(values, labels, cfg)],
    "ce_mean": lambda values, labels, cfg: [gradcheck_ce(values, labels)],
    "per_timestep_ce": lambda values, labels, cfg: [gradcheck_per_timestep_ce(values, labels)],
    "consistency": lambda values, labels, cfg: gradcheck_etc(values, cfg)[:1],
}


@pytest.mark.parametrize("patched, oracle", [
    ("objective", "complex_step"),
    ("objective", "ce_mean"),
    ("objective", "per_timestep_ce"),
    ("_consistency", "complex_step"),
    ("_consistency", "consistency"),
])
def test_oracles_catch_a_gradient_off_by_one_part_in_1e9(monkeypatch, patched, oracle):
    """One entry of ``objective``'s ``dv`` nudged, directly or through the
    consistency part that ``_consistency`` hands it, fails the oracle."""
    rng = np.random.default_rng(32)
    values, labels = random_loss_instance(rng)
    cfg = EtcConfig(tau=2.0, lam=1.0)
    assert all(r.passed for r in ORACLES[oracle](values, labels, cfg))
    real = getattr(losses, patched)
    at = 0 if patched == "objective" else 1  # where the gradient sits in the result

    def nudged(*args):
        out = list(real(*args))
        out[at] = _nudge(out[at])
        return tuple(out)

    monkeypatch.setattr(losses, patched, nudged)
    assert not any(r.passed for r in ORACLES[oracle](values, labels, cfg))


def test_complex_step_rejects_live_targets(monkeypatch):
    """A complex-safe loss whose consistency targets carry the perturbation
    differentiates another function; the oracle must refuse it."""
    frozen = ad.complex_loss

    def live_targets(values, labels, loss_mode, cfg):
        total, ce, etc = frozen(values, labels, loss_mode, cfg)
        if loss_mode == "ce_plus_etc":
            batch, steps, _ = values.shape[-3:]
            logp = ad._log_softmax_complex(values / cfg.tau)
            targets = np.exp(logp)  # not frozen
            others = targets.sum(axis=-2, keepdims=True) - targets
            etc = -(others * logp).sum(axis=(-3, -2, -1)) / (batch * steps * (steps - 1))
            total = ce + cfg.lam * cfg.tau**2 * etc
        return total, ce, etc

    rng = np.random.default_rng(34)
    values, labels = random_loss_instance(rng)
    cfg = EtcConfig(tau=2.0, lam=1.0)
    assert gradcheck_complex_step(values, labels, cfg).passed
    monkeypatch.setattr(ad, "complex_loss", live_targets)
    assert not gradcheck_complex_step(values, labels, cfg).passed
