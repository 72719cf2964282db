"""Tape mechanics: forward values, backward rules, determinism, errors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcsnn import autodiff as ad
from oracles import fd_gradient, norm_rel_err, softmax_row


def leaf(values):
    return ad.Tensor(np.asarray(values, dtype=np.float64))


def softmax(values, tau=1.0):
    """Tempered softmax read off the tape's log-softmax."""
    return np.exp(ad.log_softmax(leaf(values), tau=tau).data)


def test_matmul_example():
    out = ad.matmul(leaf([[1.0, 2.0]]), leaf([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_sum_and_mean_values():
    x = leaf([1.0, 2.0, 3.0])
    assert ad.sum_all(x).item() == 6.0
    assert ad.time_mean(leaf([[[1.0], [2.0], [3.0]]])).item() == 2.0


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
    y = ad.sum_all(ad.log_softmax(x))
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
    ls = ad.log_softmax(leaf([1000.0, 0.0]), tau=1.0)
    assert np.all(np.isfinite(ls.data))


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
    stacked = ad.log_softmax(leaf(z), tau=1.5)
    for t in range(4):
        assert np.array_equal(stacked.data[:, t], ad.log_softmax(leaf(z[:, t]), tau=1.5).data)
    with pytest.raises(ad.ShapeMismatchError, match="rank"):
        ad.log_softmax(leaf(np.zeros((1, 2, 3, 4))))


def test_time_mean_example_and_shape_policing():
    x = leaf([[[1.0, 2.0], [3.0, 6.0]]])  # batch 1, T=2, 2 classes
    out = ad.time_mean(x)
    np.testing.assert_array_equal(out.data, [[2.0, 4.0]])
    ad.sum_all(out).backward()
    np.testing.assert_array_equal(x.grad, np.full((1, 2, 2), 0.5))
    with pytest.raises(ad.ShapeMismatchError, match="time-mean"):
        ad.time_mean(leaf([[1.0, 2.0]]))


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(4, 5)) * 3
    ls = ad.log_softmax(leaf(z), tau=2.5)
    p = [softmax_row(row, tau=2.5) for row in z]
    np.testing.assert_allclose(np.exp(ls.data), p, rtol=1e-12)


def test_cross_entropy_toy_gradient():
    # -sum(y * log_softmax(z)) at z=[0,0], y=[1,0]: grad is p - y = [-0.5, 0.5].
    z = leaf([0.0, 0.0])
    y = leaf([1.0, 0.0])
    loss = ad.scale(ad.sum_all(ad.mul(y, ad.log_softmax(z, 1.0))), -1.0)
    loss.backward()
    np.testing.assert_allclose(z.grad, [-0.5, 0.5], atol=1e-15)

    def f(zv):
        row = ad.log_softmax(leaf(zv), 1.0)
        return -float((np.array([1.0, 0.0]) * row.data).sum())

    fd = fd_gradient(f, np.zeros(2))
    assert norm_rel_err(z.grad, fd) < 1e-9


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
    for _ in range(13):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        v = rng.normal(size=(n, m))
        w = rng.normal(size=(n, m))
        k = rng.normal(size=(m, n))
        tau = float(rng.uniform(0.5, 6.0))
        c = float(rng.normal())
        const = ad.Tensor(w)

        _fd_check(lambda x: ad.sum_all(ad.add(x, ad.mul(x, const))), v)
        _fd_check(lambda x: ad.sum_all(ad.sub(ad.mul(x, x), const)), v)
        _fd_check(lambda x: ad.sum_all(ad.mul(x, const)), v)
        _fd_check(lambda x: ad.sum_all(ad.scale(x, c)), v)
        _fd_check(lambda x: ad.sum_all(ad.matmul(x, ad.Tensor(k))), v)
        _fd_check(lambda x: ad.sum_all(ad.mul(ad.log_softmax(x, tau), const)), v)
        # rank-3 (batch, T, classes) stacks: log-softmax on the last axis, time mean
        v3 = rng.normal(size=(n, 3, m))
        const3 = ad.Tensor(rng.normal(size=(n, 3, m)))
        _fd_check(lambda x: ad.sum_all(ad.mul(ad.log_softmax(x, tau), const3)), v3)
        _fd_check(lambda x: ad.sum_all(ad.mul(ad.time_mean(x), const)), v3)
        cases += 8
    assert cases >= 100


def test_forward_and_backward_are_deterministic():
    def run():
        rng = np.random.default_rng(7)
        x = leaf(rng.normal(size=(6, 4)))
        w = leaf(rng.normal(size=(4, 3)))
        out = ad.sum_all(ad.log_softmax(ad.matmul(x, w), tau=2.0))
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


def test_softmax_rejects_bad_tau():
    with pytest.raises(ValueError, match="tau"):
        ad.log_softmax(leaf([1.0, 2.0]), tau=0.0)
    with pytest.raises(ValueError, match="tau"):
        ad.log_softmax(leaf([1.0, 2.0]), tau=-1.0)
