"""Tests for composite losses in repro.autograd.functional."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional, ops
from tests.grad_check import check_gradients


class TestBinaryCrossEntropy:
    def test_perfect_prediction_near_zero_loss(self):
        loss = functional.binary_cross_entropy(
            Tensor([1.0 - 1e-7, 1e-7]), np.array([1.0, 0.0])
        )
        assert loss.item() < 1e-5

    def test_value_matches_formula(self):
        p, y = 0.3, 1.0
        loss = functional.binary_cross_entropy(Tensor([p]), np.array([y]))
        assert np.isclose(loss.item(), -np.log(p))

    def test_clipping_prevents_inf(self):
        loss = functional.binary_cross_entropy(Tensor([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())

    def test_reduction_none_shape(self):
        loss = functional.binary_cross_entropy(
            Tensor([0.2, 0.8]), np.array([0.0, 1.0]), reduction="none"
        )
        assert loss.shape == (2,)

    def test_reduction_sum(self):
        none = functional.binary_cross_entropy(
            Tensor([0.2, 0.8]), np.array([0.0, 1.0]), reduction="none"
        )
        total = functional.binary_cross_entropy(
            Tensor([0.2, 0.8]), np.array([0.0, 1.0]), reduction="sum"
        )
        assert np.isclose(total.item(), none.data.sum())

    def test_unknown_reduction_raises(self):
        with pytest.raises(ValueError):
            functional.binary_cross_entropy(Tensor([0.5]), np.array([1.0]), "bogus")

    def test_gradient(self):
        rng = np.random.default_rng(3)
        y = (rng.random(6) > 0.5).astype(float)
        check_gradients(
            lambda x: functional.binary_cross_entropy(ops.sigmoid(x), y),
            [rng.normal(size=(6,))],
        )


class TestBCEWithLogits:
    """``binary_cross_entropy`` on a direct ``ops.sigmoid`` output fuses
    into the logits-space ``ops.sigmoid_bce`` node."""

    def test_matches_probability_form(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=10)
        y = (rng.random(10) > 0.5).astype(float)
        via_logits = functional.binary_cross_entropy(ops.sigmoid(Tensor(z)), y)
        via_probs = functional.binary_cross_entropy(Tensor(1.0 / (1.0 + np.exp(-z))), y)
        assert np.isclose(via_logits.item(), via_probs.item(), atol=1e-6)

    def test_stable_at_extreme_logits(self):
        loss = functional.binary_cross_entropy(
            ops.sigmoid(Tensor([1000.0, -1000.0])), np.array([0.0, 1.0])
        )
        assert np.isfinite(loss.item())
        assert loss.item() > 100.0  # hugely wrong predictions cost a lot

    def test_gradient(self):
        rng = np.random.default_rng(5)
        y = (rng.random(8) > 0.5).astype(float)
        check_gradients(
            lambda z: functional.binary_cross_entropy(ops.sigmoid(z), y),
            [rng.normal(size=(8,))],
        )


class TestWeightedMean:
    def test_uniform_weights_equal_mean(self):
        v = Tensor([1.0, 2.0, 3.0])
        assert np.isclose(
            functional.weighted_mean(v, np.ones(3)).item(), 2.0
        )

    def test_custom_denominator(self):
        v = Tensor([1.0, 1.0])
        out = functional.weighted_mean(v, np.array([1.0, 3.0]), denominator=2.0)
        assert np.isclose(out.item(), 2.0)

    def test_nonpositive_denominator_raises(self):
        with pytest.raises(ValueError):
            functional.weighted_mean(Tensor([1.0]), np.ones(1), denominator=0.0)

    def test_weights_are_constants_in_backward(self):
        x = Tensor([2.0], requires_grad=True)
        out = functional.weighted_mean(x, np.array([5.0]))
        out.backward()
        assert np.allclose(x.grad, [5.0])
