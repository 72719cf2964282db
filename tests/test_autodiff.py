"""Tape mechanics: forward values, backward rules, determinism, errors;
the engine's softmax helpers; and the tape's place as an oracle only."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etcsnn
from etcsnn import autodiff as ad
from etcsnn.losses import EtcConfig, _log_softmax_np, _softmax_np, objective
from oracles import fd_gradient, norm_rel_err, softmax_row


def leaf(values):
    return ad.Tensor(np.asarray(values, dtype=np.float64))


def softmax(values, tau=1.0):
    """The engine's tempered softmax."""
    return _softmax_np(np.asarray(values, dtype=np.float64) / tau)


def test_matmul_example():
    out = ad.matmul(leaf([[1.0, 2.0]]), leaf([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_sum_and_mean_values():
    x = leaf([1.0, 2.0, 3.0])
    assert ad.sum_all(x).item() == 6.0
    assert ad.scale(ad.sum_all(x), 1.0 / 3.0).item() == 2.0


def test_backward_linear_chain():
    x = leaf([1.0, -2.0])
    y = ad.sum_all(ad.scale(x, 2.0))
    grads = y.backward()
    np.testing.assert_array_equal(grads[x], [2.0, 2.0])


def test_backward_fanout_accumulates():
    # y = x*x + x  =>  dy/dx = 2x + 1
    x = leaf([3.0])
    y = ad.sum_all(ad.add(ad.mul(x, x), x))
    y.backward()
    np.testing.assert_array_equal(x.grad, [7.0])


def test_backward_is_repeatable():
    x = leaf([[0.3, -1.2], [2.0, 0.1]])
    w = leaf([[1.0], [0.5]])
    y = ad.sum_all(ad.matmul(x, w))
    y.backward()
    first = (x.grad.copy(), w.grad.copy())
    y.backward()
    np.testing.assert_array_equal(x.grad, first[0])
    np.testing.assert_array_equal(w.grad, first[1])


def test_backward_returns_leaf_map():
    x = leaf([1.0, 2.0])
    y = ad.sum_all(ad.mul(x, x))
    grads = y.backward()
    assert set(grads) == {x}
    assert grads[x].shape == x.shape


def test_grad_shapes_match_values():
    a = leaf(np.ones((3, 4)))
    b = leaf(np.ones((4, 2)))
    out = ad.sum_all(ad.matmul(a, b))
    out.backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4, 2)


def test_stop_gradient_forward_identity():
    x = leaf([1.5, -0.5])
    np.testing.assert_array_equal(ad.stop_gradient(x).data, x.data)


def test_stop_gradient_blocks_flow():
    # y = sg(x) * x: only the raw-x factor carries gradient, so dy/dx = x.
    x = leaf([3.0, -2.0])
    y = ad.sum_all(ad.mul(ad.stop_gradient(x), x))
    y.backward()
    np.testing.assert_array_equal(x.grad, [3.0, -2.0])


def test_stop_gradient_leaves_other_paths_bitwise_unchanged():
    vals = np.array([0.7, -1.3, 2.2])
    # Baseline: y = x*x + c*x with c an unrelated constant equal to x's value.
    x1 = leaf(vals)
    c = leaf(vals.copy())
    ad.sum_all(ad.add(ad.mul(x1, x1), ad.mul(c, x1))).backward()
    # Same graph with the constant path replaced by stop_gradient(x).
    x2 = leaf(vals)
    sg = ad.stop_gradient(x2)
    ad.sum_all(ad.add(ad.mul(x2, x2), ad.mul(sg, x2))).backward()
    assert np.array_equal(x1.grad, x2.grad)


def test_softmax_temperature_example():
    p = softmax([4.0, 0.0], tau=4.0)
    expect = [math.e / (math.e + 1.0), 1.0 / (math.e + 1.0)]
    np.testing.assert_allclose(p, expect, rtol=0, atol=1e-15)


def test_softmax_uniform_on_equal_logits():
    p = softmax([[1.0, 1.0, 1.0]], tau=2.0)
    np.testing.assert_allclose(p, [[1 / 3] * 3], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    p = softmax(rng.normal(size=(5, 7)) * 50, tau=3.0)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(5), atol=1e-9)


def test_softmax_survives_huge_logits():
    assert np.all(np.isfinite(_log_softmax_np(np.array([1000.0, 0.0]))))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    st.floats(-100, 100),
    st.floats(0.25, 8.0),
)
def test_softmax_shift_invariance(row, c, tau):
    base = softmax(row, tau=tau)
    shifted = softmax([v + c for v in row], tau=tau)
    assert np.max(np.abs(base - shifted)) <= 1e-12


def test_rank3_softmax_matches_per_step_rows():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(2, 4, 5)) * 3
    stacked = _log_softmax_np(z / 1.5)
    for t in range(4):
        assert np.array_equal(stacked[:, t], _log_softmax_np(z[:, t] / 1.5))


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(4, 5)) * 3
    p = [softmax_row(row, tau=2.5) for row in z]
    np.testing.assert_allclose(np.exp(_log_softmax_np(z / 2.5)), p, rtol=1e-12)


def test_cross_entropy_toy_gradient():
    # -sum(y * log_softmax(z)) at z=[0,0], y=[1,0]: grad is p - y = [-0.5, 0.5],
    # read off objective's per-step CE at batch 1 and T = 1.
    y = np.array([[1.0, 0.0]])

    def f(zv):
        return objective(zv, y, "per_timestep_ce", EtcConfig())[1]

    grad = objective(np.zeros((1, 1, 2)), y, "per_timestep_ce", EtcConfig())[0]
    np.testing.assert_allclose(grad, [[[-0.5, 0.5]]], atol=1e-15)
    fd = fd_gradient(f, np.zeros((1, 1, 2)))
    assert norm_rel_err(grad, fd) < 1e-9


def _fd_check(build, x0, h=1e-5, tol=1e-4):
    """FD-vs-autodiff check: `build` maps a leaf tensor to a scalar tensor."""
    x = leaf(x0)
    out = build(x)
    out.backward()
    fd = fd_gradient(lambda arr: build(leaf(arr)).item(), np.array(x0, dtype=np.float64), h=h)
    err = norm_rel_err(x.grad, fd)
    assert err < tol, f"rel err {err}"


def test_finite_differences_every_smooth_op():
    """Backward of every differentiable op matches central differences.

    Covers >= 100 random cases across the op set.
    """
    rng = np.random.default_rng(42)
    cases = 0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        v = rng.normal(size=(n, m))
        w = rng.normal(size=(n, m))
        k = rng.normal(size=(m, n))
        c = float(rng.normal())
        const = ad.Tensor(w)

        _fd_check(lambda x: ad.sum_all(ad.add(x, ad.mul(x, const))), v)
        _fd_check(lambda x: ad.sum_all(ad.sub(ad.mul(x, x), const)), v)
        _fd_check(lambda x: ad.sum_all(ad.mul(x, const)), v)
        _fd_check(lambda x: ad.sum_all(ad.scale(x, c)), v)
        _fd_check(lambda x: ad.sum_all(ad.matmul(x, ad.Tensor(k))), v)
        cases += 5
    assert cases >= 100


def test_forward_and_backward_are_deterministic():
    def run():
        rng = np.random.default_rng(7)
        x = leaf(rng.normal(size=(6, 4)))
        w = leaf(rng.normal(size=(4, 3)))
        h = ad.matmul(x, w)
        out = ad.sum_all(ad.mul(h, h))
        out.backward()
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for left, right in zip(a, b):
        assert np.array_equal(left, right)


def test_custom_grad_uses_pseudo_derivative():
    spec = ad.CustomGradSpec(
        forward=lambda x: np.sign(x),
        backward=lambda x: np.full_like(x, 2.5),
    )
    x = leaf([0.3, -0.7])
    out = ad.sum_all(ad.custom_grad(x, spec, name="sign"))
    np.testing.assert_array_equal(out.item(), 0.0)
    out.backward()
    np.testing.assert_array_equal(x.grad, [2.5, 2.5])


def test_custom_grad_shape_policing():
    bad = ad.CustomGradSpec(forward=lambda x: x[:1], backward=lambda x: x)
    with pytest.raises(ad.ShapeMismatchError):
        ad.custom_grad(leaf([1.0, 2.0]), bad)


# -- error contracts ---------------------------------------------------------


def test_shape_mismatch_names_the_op():
    with pytest.raises(ad.ShapeMismatchError, match="add"):
        ad.add(leaf([1.0, 2.0]), leaf([1.0, 2.0, 3.0]))
    with pytest.raises(ad.ShapeMismatchError, match="matmul"):
        ad.matmul(leaf([[1.0, 2.0]]), leaf([[1.0, 2.0]]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_forward_raises():
    with pytest.raises(ad.NonFiniteError, match="mul"):
        ad.mul(leaf([1.0, 1e200]), leaf([1.0, 1e200]))
    with pytest.raises(ad.NonFiniteError, match="scale"):
        ad.scale(leaf([1e308]), 10.0)
    with pytest.raises(ad.NonFiniteError):
        leaf([np.nan])


def test_backward_requires_scalar_root():
    x = leaf([[1.0, 2.0]])
    with pytest.raises(ad.GraphError):
        ad.scale(x, 2.0).backward()


# -- the tape is an oracle only ------------------------------------------------------


def test_engine_imports_no_tape():
    """Training, evaluation and the objective never build a Tensor: in a
    fresh interpreter, importing the trainer (and with it snn, losses,
    optim and data) or the CLI leaves the oracle module unloaded; only
    ``gradcheck`` loads it.  The network knows nothing of the optimizer:
    importing ``snn`` leaves ``optim`` unloaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(etcsnn.__file__).parents[1])}
    for module, unloaded in (
        ("etcsnn.train", "etcsnn.autodiff"),
        ("etcsnn.cli", "etcsnn.autodiff"),
        ("etcsnn.snn", "etcsnn.optim"),
    ):
        code = f"import sys, {module}; print({unloaded!r} in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout == "False\n", (module, unloaded)


def gradcheck_complex_step(cases):
    """The complex-step oracle on a (1, 1, cases) draw, whose every entry is
    one case."""
    values = np.zeros((1, 1, max(cases, 0)))
    return ad.gradcheck_complex_step(values, values[0], EtcConfig())


@pytest.mark.parametrize("oracle", [ad.gradcheck_suite, ad.gradcheck_lif, gradcheck_complex_step])
@pytest.mark.parametrize("cases", [0, -3])
def test_oracles_refuse_to_check_nothing(oracle, cases):
    with pytest.raises(ValueError, match="cases"):
        oracle(cases=cases)
