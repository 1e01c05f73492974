"""Unit + finite-difference tests for every primitive op."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional, ops
from tests.grad_check import check_gradients


class TestForwardValues:
    def test_exp(self):
        assert np.allclose(ops.exp(Tensor([0.0, 1.0])).data, [1.0, np.e])

    def test_log(self):
        assert np.allclose(ops.log(Tensor([1.0, np.e])).data, [0.0, 1.0])

    def test_sigmoid_extremes_stable(self):
        out = ops.sigmoid(Tensor([-1000.0, 0.0, 1000.0])).data
        assert np.allclose(out, [0.0, 0.5, 1.0])
        assert np.all(np.isfinite(out))

    def test_tanh(self):
        assert np.allclose(ops.tanh(Tensor([0.0])).data, [0.0])

    def test_relu(self):
        assert np.allclose(ops.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_leaky_relu(self):
        assert np.allclose(
            ops.leaky_relu(Tensor([-1.0, 2.0]), 0.1).data, [-0.1, 2.0]
        )

    def test_absolute(self):
        assert np.allclose(ops.absolute(Tensor([-2.0, 3.0])).data, [2.0, 3.0])

    def test_clip(self):
        out = ops.clip(Tensor([-1.0, 0.5, 2.0]), 0.0, 1.0).data
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_maximum(self):
        out = ops.maximum(Tensor([1.0, 5.0]), Tensor([3.0, 2.0])).data
        assert np.allclose(out, [3.0, 5.0])

    def test_concat_axis1(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        assert ops.concat([a, b], axis=1).shape == (2, 5)

    def test_stack(self):
        a, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        assert ops.stack([a, b], axis=0).shape == (2, 3)

    def test_take_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ops.take_rows(table, np.array([1, 1, 3]))
        assert out.shape == (3, 3)
        assert np.allclose(out.data[0], [3.0, 4.0, 5.0])

    def test_take_rows_rejects_floats(self):
        with pytest.raises(TypeError):
            ops.take_rows(Tensor(np.ones((2, 2))), np.array([0.5]))

    @pytest.mark.parametrize("dtype", [bool, np.float32])
    def test_take_rows_rejects_non_integer_indices(self, dtype):
        with pytest.raises(TypeError, match="indices must be integers"):
            ops.take_rows(Tensor(np.ones((2, 2))), np.array([1, 0], dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8, np.uint64])
    def test_take_rows_accepts_signed_and_unsigned_indices(self, dtype):
        table = np.arange(6.0).reshape(3, 2)
        out = ops.take_rows(Tensor(table), np.array([2, 0], dtype=dtype))
        np.testing.assert_array_equal(out.data, table[[2, 0]])

    def test_softmax_rows_sum_to_one(self):
        out = ops.softmax(Tensor(np.random.default_rng(0).normal(size=(5, 4))))
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = ops.softmax(Tensor(x)).data
        b = ops.softmax(Tensor(x + 1000.0)).data
        assert np.allclose(a, b)

    def test_squeeze(self):
        assert ops.squeeze(Tensor(np.ones((3, 1))), axis=1).shape == (3,)

    def test_dropout_mask_zero_rate(self):
        mask = ops.dropout_mask((10,), 0.0, np.random.default_rng(0))
        assert np.allclose(mask, 1.0)

    def test_dropout_mask_scaling(self):
        rng = np.random.default_rng(0)
        mask = ops.dropout_mask((10000,), 0.5, rng)
        # inverted dropout: kept entries are 1/(1-rate)
        assert set(np.unique(mask)).issubset({0.0, 2.0})
        assert abs(mask.mean() - 1.0) < 0.05

    def test_dropout_mask_invalid_rate(self):
        with pytest.raises(ValueError):
            ops.dropout_mask((2,), 1.0, np.random.default_rng(0))


class TestGradients:
    """Finite-difference checks for each primitive, on smooth regions."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_exp_grad(self):
        check_gradients(lambda x: ops.exp(x).sum(), [self.rng.normal(size=(3, 2))])

    def test_log_grad(self):
        check_gradients(
            lambda x: ops.log(x).sum(), [self.rng.uniform(0.5, 2.0, size=(4,))]
        )

    def test_sigmoid_grad(self):
        check_gradients(lambda x: ops.sigmoid(x).sum(), [self.rng.normal(size=(5,))])

    def test_tanh_grad(self):
        check_gradients(lambda x: ops.tanh(x).sum(), [self.rng.normal(size=(5,))])

    def test_relu_grad_away_from_kink(self):
        x = self.rng.normal(size=(6,))
        x[np.abs(x) < 0.1] = 0.5
        check_gradients(lambda t: ops.relu(t).sum(), [x])

    def test_leaky_relu_grad(self):
        x = self.rng.normal(size=(6,))
        x[np.abs(x) < 0.1] = 0.5
        check_gradients(lambda t: (ops.leaky_relu(t, 0.2) * t).sum(), [x])

    def test_absolute_grad_away_from_zero(self):
        x = self.rng.normal(size=(6,))
        x[np.abs(x) < 0.1] = 1.0
        check_gradients(lambda t: ops.absolute(t).sum(), [x])

    def test_clip_grad_interior(self):
        x = self.rng.uniform(0.2, 0.8, size=(5,))
        check_gradients(lambda t: (ops.clip(t, 0.0, 1.0) ** 2).sum(), [x])

    def test_clip_grad_blocked_outside(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        ops.clip(x, 0.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 0.0])

    def test_maximum_grad(self):
        a = self.rng.normal(size=(4,))
        b = a + np.where(self.rng.random(4) > 0.5, 1.0, -1.0)
        check_gradients(lambda x, y: (ops.maximum(x, y) * 2.0).sum(), [a, b])

    def test_concat_grad(self):
        check_gradients(
            lambda a, b: (ops.concat([a, b], axis=1) ** 2).sum(),
            [self.rng.normal(size=(2, 2)), self.rng.normal(size=(2, 3))],
        )

    def test_stack_grad(self):
        check_gradients(
            lambda a, b: (ops.stack([a, b], axis=0) ** 2).sum(),
            [self.rng.normal(size=(3,)), self.rng.normal(size=(3,))],
        )

    def test_take_rows_grad_duplicates(self):
        idx = np.array([0, 2, 2, 1])
        check_gradients(
            lambda t: (ops.take_rows(t, idx) ** 2).sum(),
            [self.rng.normal(size=(4, 3))],
        )

    def test_softmax_grad(self):
        check_gradients(
            lambda x: (ops.softmax(x, axis=1) ** 2).sum(),
            [self.rng.normal(size=(3, 4))],
        )

    def test_squeeze_grad(self):
        check_gradients(
            lambda x: (ops.squeeze(x, axis=1) ** 2).sum(),
            [self.rng.normal(size=(4, 1))],
        )

    def test_batched_matmul_grad(self):
        check_gradients(
            lambda a, b: (a @ b).sum(),
            [self.rng.normal(size=(2, 3, 4)), self.rng.normal(size=(2, 4, 2))],
        )


class TestFusedKernels:
    """The fused affine / sigmoid_bce nodes against their unfused forms."""

    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def test_affine_matches_matmul_add(self):
        x = self.rng.normal(size=(5, 3))
        w = self.rng.normal(size=(3, 2))
        b = self.rng.normal(size=(2,))
        fused = ops.affine(Tensor(x), Tensor(w), Tensor(b)).data
        unfused = x @ w + b
        assert np.array_equal(fused, unfused)

    def test_affine_no_bias(self):
        x = self.rng.normal(size=(4, 3))
        w = self.rng.normal(size=(3, 2))
        assert np.array_equal(ops.affine(Tensor(x), Tensor(w)).data, x @ w)

    def test_affine_rejects_higher_rank(self):
        with pytest.raises(ValueError):
            ops.affine(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 2))))

    def test_affine_grad(self):
        check_gradients(
            lambda x, w, b: (ops.affine(x, w, b) ** 2).sum(),
            [
                self.rng.normal(size=(4, 3)),
                self.rng.normal(size=(3, 2)),
                self.rng.normal(size=(2,)),
            ],
        )

    def test_affine_grad_no_bias(self):
        check_gradients(
            lambda x, w: (ops.affine(x, w) ** 2).sum(),
            [self.rng.normal(size=(4, 3)), self.rng.normal(size=(3, 2))],
        )

    def test_sigmoid_bce_matches_composition(self):
        z = self.rng.normal(size=(50,)) * 3.0
        y = (self.rng.random(50) > 0.5).astype(float)
        s = 1.0 / (1.0 + np.exp(-z))
        fused = ops.sigmoid_bce(Tensor(z), y, probs=s).data
        composed = -(y * np.log(s) + (1.0 - y) * np.log(1.0 - s))
        assert np.allclose(fused, composed, atol=1e-12)

    def test_sigmoid_bce_extreme_logits_finite(self):
        z = Tensor(np.array([-1000.0, 0.0, 1000.0]), requires_grad=True)
        loss = ops.sigmoid_bce(
            z, np.array([1.0, 0.0, 0.0]), probs=ops.sigmoid(z).data
        )
        assert np.all(np.isfinite(loss.data))
        loss.sum().backward()
        assert np.all(np.isfinite(z.grad))

    def test_sigmoid_bce_grad(self):
        """Through ``binary_cross_entropy``, which fuses a direct
        ``ops.sigmoid`` output into the ``sigmoid_bce`` node."""
        y = (self.rng.random(6) > 0.5).astype(float)
        check_gradients(
            lambda z: functional.binary_cross_entropy(
                ops.sigmoid(z), y, reduction="sum"
            ),
            [self.rng.normal(size=(6,))],
        )

    def test_sigmoid_bce_grad_with_precomputed_probs(self):
        z = self.rng.normal(size=(6,))
        y = (self.rng.random(6) > 0.5).astype(float)
        probs = 1.0 / (1.0 + np.exp(-z))
        check_gradients(
            lambda t: ops.sigmoid_bce(t, y, probs=probs).sum(), [z]
        )

    def test_sigmoid_output_remembers_logits(self):
        z = Tensor(np.array([0.5, -0.5]), requires_grad=True)
        out = ops.sigmoid(z)
        assert out._logits is z

    def test_branch_free_sigmoid_matches_two_branch(self):
        x = np.concatenate([self.rng.normal(size=500) * 10, [0.0, -0.0]])
        out = ops.sigmoid(Tensor(x)).data
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        e = np.exp(x[~pos])
        expected[~pos] = e / (1.0 + e)
        assert np.allclose(out, expected, atol=1e-16)
