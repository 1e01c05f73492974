"""Unit tests for the Tensor class and the backward engine."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.autograd.tensor import unbroadcast


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_from_numpy_float32_upcasts(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float64

    def test_integer_data_preserved(self):
        t = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.dtype, np.integer)

    def test_integer_requires_grad_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2]), requires_grad=True)

    def test_from_tensor_copies_data_reference(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert np.array_equal(a.data, b.data)

    def test_tensor_helper(self):
        t = Tensor([1.0], requires_grad=True, name="x")
        assert t.requires_grad
        assert t.name == "x"

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_on_vector_raises(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_len(self):
        assert len(Tensor([[1.0], [2.0], [3.0]])) == 3


class TestArithmeticBackward:
    def test_add_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_mul_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [3.0, 4.0])
        assert np.allclose(b.grad, [1.0, 2.0])

    def test_div_grads(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.0])

    def test_rsub_and_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        (1.0 - a).sum().backward()
        assert np.allclose(a.grad, [-1.0])
        a.zero_grad()
        (1.0 / a).sum().backward()
        assert np.allclose(a.grad, [-0.25])

    def test_pow_grad(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).sum().backward()
        assert np.allclose(a.grad, [6.0])

    def test_pow_tensor_exponent_rejected(self):
        a = Tensor([3.0], requires_grad=True)
        with pytest.raises(TypeError):
            a ** Tensor([2.0])

    def test_neg_grad(self):
        a = Tensor([3.0], requires_grad=True)
        (-a).sum().backward()
        assert np.allclose(a.grad, [-1.0])

    def test_matmul_2d(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, 4.0 * np.ones((2, 3)))
        assert np.allclose(b.grad, 2.0 * np.ones((3, 4)))

    def test_broadcast_add_bias(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        (x + bias).sum().backward()
        assert np.allclose(bias.grad, [4.0, 4.0, 4.0])

    def test_broadcast_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        (a * 3.0).sum().backward()
        assert np.allclose(a.grad, 3.0 * np.ones((2, 2)))

    def test_reused_tensor_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        out = a * a + a  # derivative: 2a + 1 = 5
        out.sum().backward()
        assert np.allclose(a.grad, [5.0])

    def test_diamond_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2.0
        c = a * 3.0
        (b + c).sum().backward()
        assert np.allclose(a.grad, [5.0])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.sum(axis=0, keepdims=True).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_sum_axis_no_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.sum(axis=1).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_mean_scales_grad(self):
        a = Tensor(np.ones(4), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, 0.25 * np.ones(4))

    def test_mean_axis(self):
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        a.mean(axis=1).sum().backward()
        assert np.allclose(a.grad, 0.25 * np.ones((2, 4)))

    def test_reshape_roundtrip(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert np.allclose(a.grad, np.ones(6))

    def test_transpose(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (a.T @ Tensor(np.ones((2, 1)))).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_getitem_scatter(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        idx = np.array([0, 0, 3])
        a[idx].sum().backward()
        assert np.allclose(a.grad, [2.0, 0.0, 0.0, 1.0, 0.0])


class TestEngineBehaviour:
    def test_backward_requires_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2.0).backward()

    def test_backward_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2.0).backward(np.array([1.0, 10.0]))
        assert np.allclose(a.grad, [2.0, 20.0])

    def test_backward_grad_shape_mismatch(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2.0).backward(np.ones(3))

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        out = (a.detach() * 2.0 + a).sum()
        out.backward()
        assert np.allclose(a.grad, [1.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_no_requires_grad_no_backward_graph(self):
        a = Tensor([1.0])
        out = a * 2.0
        assert not out.requires_grad

    def test_deep_chain_does_not_overflow(self):
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(3000):
            out = out + 0.001
        out.sum().backward()
        assert np.allclose(a.grad, [1.0])

    def test_comparisons_return_numpy(self):
        a = Tensor([1.0, 3.0])
        assert isinstance(a > 2.0, np.ndarray)
        assert (a > 2.0).tolist() == [False, True]
        assert (a < 2.0).tolist() == [True, False]
        assert (a >= 3.0).tolist() == [False, True]
        assert (a <= 1.0).tolist() == [True, False]


class TestLeafOnlyAccumulation:
    """Gradients land only on leaves unless retain_grad() opts in."""

    def test_intermediate_has_no_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        mid = a * 3.0
        mid.sum().backward()
        assert mid.grad is None
        assert np.allclose(a.grad, [3.0, 3.0])

    def test_retain_grad_on_intermediate(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        mid = (a * 3.0).retain_grad()
        (mid * mid).sum().backward()
        assert np.allclose(mid.grad, 2.0 * 3.0 * np.array([1.0, 2.0]))
        assert np.allclose(a.grad, 2.0 * 9.0 * np.array([1.0, 2.0]))

    def test_retain_grad_returns_self(self):
        a = Tensor([1.0], requires_grad=True)
        assert a.retain_grad() is a

    def test_retained_grad_sums_multiple_consumers(self):
        a = Tensor([2.0], requires_grad=True)
        mid = (a * 1.0).retain_grad()
        (mid * 3.0 + mid * 4.0).sum().backward()
        assert np.allclose(mid.grad, [7.0])
        assert np.allclose(a.grad, [7.0])

    def test_backward_on_leaf(self):
        a = Tensor([1.0], requires_grad=True)
        a.backward(np.array([2.0]))
        assert np.allclose(a.grad, [2.0])

    def test_leaf_grad_is_writable(self):
        """Adopted gradient buffers must be private, mutable arrays."""
        a = Tensor(np.ones(3), requires_grad=True)
        a.sum().backward()  # sum backward emits a broadcast (read-only) view
        a.grad[0] = 5.0
        assert a.grad[0] == 5.0

    def test_repeated_backward_accumulates(self):
        a = Tensor([1.0], requires_grad=True)
        loss = (a * 2.0).sum()
        loss.backward()
        loss.backward()
        assert np.allclose(a.grad, [4.0])

    def test_shared_passthrough_grad_not_aliased(self):
        """``x + y`` hands one buffer to both parents; accumulating into
        one leaf must not corrupt the other's gradient."""
        x = Tensor([1.0, 1.0], requires_grad=True)
        y = Tensor([2.0, 2.0], requires_grad=True)
        # x receives two contributions (one via the shared add buffer),
        # y exactly the shared buffer: if x's accumulation mutated it in
        # place, y's gradient would be wrong.
        ((x + y).sum() + (x * 3.0).sum()).backward()
        assert np.allclose(x.grad, [4.0, 4.0])
        assert np.allclose(y.grad, [1.0, 1.0])

    def test_explicit_seed_array_not_adopted(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        seed = np.array([1.0, 1.0])
        a.backward(seed)
        a.grad[0] = 99.0
        assert seed[0] == 1.0


class TestUnbroadcast:
    def test_noop_when_same_shape(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_prepended_axes(self):
        g = np.ones((4, 2, 3))
        assert unbroadcast(g, (2, 3)).shape == (2, 3)
        assert np.allclose(unbroadcast(g, (2, 3)), 4.0)

    def test_sums_stretched_axes(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        assert out.shape == (2, 1)
        assert np.allclose(out, 3.0)

    def test_scalar_target(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, ())
        assert out.shape == ()
        assert float(out) == 6.0
