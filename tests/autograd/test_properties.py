"""Property-based tests (hypothesis) for the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd import Tensor, functional, ops
from tests.grad_check import check_gradients

finite_floats = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False, width=64
)


def small_arrays(shape):
    return arrays(np.float64, shape, elements=finite_floats)


@settings(max_examples=30, deadline=None)
@given(small_arrays((4,)), small_arrays((4,)))
def test_addition_commutes(a, b):
    left = (Tensor(a) + Tensor(b)).data
    right = (Tensor(b) + Tensor(a)).data
    assert np.allclose(left, right)


@settings(max_examples=30, deadline=None)
@given(small_arrays((3, 2)))
def test_sigmoid_bounded(x):
    out = ops.sigmoid(Tensor(x)).data
    assert np.all(out > 0.0)
    assert np.all(out < 1.0)


@settings(max_examples=30, deadline=None)
@given(small_arrays((3, 2)))
def test_sigmoid_symmetry(x):
    """sigmoid(-x) == 1 - sigmoid(x)."""
    left = ops.sigmoid(Tensor(-x)).data
    right = 1.0 - ops.sigmoid(Tensor(x)).data
    assert np.allclose(left, right, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(small_arrays((5,)))
def test_softmax_is_distribution(x):
    out = ops.softmax(Tensor(x.reshape(1, -1))).data
    assert np.isclose(out.sum(), 1.0)
    assert np.all(out >= 0.0)


@settings(max_examples=20, deadline=None)
@given(small_arrays((4,)))
def test_mlp_composition_gradient_matches_numeric(x):
    """End-to-end gradient of a random two-layer composition."""
    w = np.linspace(-0.5, 0.5, 8).reshape(4, 2)

    def f(t):
        h = ops.tanh(t.reshape(1, 4) @ Tensor(w))
        p = ops.sigmoid(h.sum())
        return functional.binary_cross_entropy(p.reshape(1), np.array([1.0]))

    check_gradients(f, [x], atol=1e-4, rtol=1e-3)


@settings(max_examples=30, deadline=None)
@given(
    small_arrays((6,)),
    arrays(np.float64, (6,), elements=st.floats(min_value=0.05, max_value=5.0)),
)
def test_weighted_mean_linear_in_weights(values, weights):
    v = Tensor(values)
    doubled = functional.weighted_mean(v, 2.0 * weights).item()
    single = functional.weighted_mean(v, weights).item()
    assert np.isclose(doubled, 2.0 * single, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(small_arrays((4, 3)))
def test_backward_of_sum_is_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    assert np.allclose(t.grad, np.ones_like(x))


@settings(max_examples=30, deadline=None)
@given(small_arrays((4,)), small_arrays((4,)))
def test_product_rule(a, b):
    """d/da sum(a*b) == b and vice versa."""
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    (ta * tb).sum().backward()
    assert np.allclose(ta.grad, b)
    assert np.allclose(tb.grad, a)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=4))
def test_take_rows_gradient_counts_duplicates(dup):
    table = Tensor(np.ones((5, 2)), requires_grad=True)
    idx = np.array([dup] * 3)
    ops.take_rows(table, idx).sum().backward()
    expected = np.zeros((5, 2))
    expected[dup] = 3.0
    assert np.allclose(table.grad, expected)
