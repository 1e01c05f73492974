"""Tests for Linear, MLP, Embedding, Dropout, activations, init."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import MLP, Dropout, Embedding, Linear, get_activation, init
from repro.nn.embedding import trusted_indices
from tests.grad_check import check_gradients


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(3, 5, rng)
        assert layer(Tensor(np.ones((7, 3)))).shape == (7, 5)

    def test_no_bias(self, rng):
        layer = Linear(3, 5, rng, bias=False)
        assert layer.bias is None
        zero_out = layer(Tensor(np.zeros((1, 3))))
        assert np.allclose(zero_out.data, 0.0)

    def test_invalid_sizes(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 5, rng)

    def test_invalid_init_name(self, rng):
        with pytest.raises(ValueError):
            Linear(3, 5, rng, weight_init="bogus")

    def test_gradient_flows_to_weight_and_bias(self, rng):
        layer = Linear(3, 2, rng)
        layer(Tensor(np.ones((4, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert np.allclose(layer.bias.grad, [4.0, 4.0])

    def test_end_to_end_gradcheck(self, rng):
        w0 = rng.normal(size=(3, 2))

        def f(x, w):
            return ((x @ w) ** 2).sum()

        check_gradients(f, [rng.normal(size=(4, 3)), w0])


class TestMLP:
    def test_hidden_output_shape(self, rng):
        mlp = MLP(4, [8, 6], rng)
        assert mlp(Tensor(np.ones((3, 4)))).shape == (3, 6)
        assert mlp.out_width == 6

    def test_with_output_layer(self, rng):
        mlp = MLP(4, [8], rng, out_features=1)
        assert mlp(Tensor(np.ones((3, 4)))).shape == (3, 1)

    def test_no_layers_rejected(self, rng):
        with pytest.raises(ValueError):
            MLP(4, [], rng)

    def test_empty_hidden_with_output_ok(self, rng):
        mlp = MLP(4, [], rng, out_features=2)
        assert mlp(Tensor(np.ones((3, 4)))).shape == (3, 2)

    def test_activation_applied(self, rng):
        mlp = MLP(2, [4], rng, activation="relu")
        out = mlp(Tensor(-100.0 * np.ones((1, 2))))
        # relu clamps the (negative-dominated) pre-activations at zero
        assert np.all(out.data >= 0.0)

    def test_dropout_only_in_training(self, rng):
        mlp = MLP(4, [64], rng, dropout=0.5)
        x = Tensor(np.ones((1, 4)))
        mlp.eval()
        a = mlp(x).data
        b = mlp(x).data
        assert np.allclose(a, b)  # eval is deterministic
        mlp.train()
        c = mlp(x).data
        d = mlp(x).data
        assert not np.allclose(c, d)  # train applies random masks

    def test_paper_tower_shapes(self, rng):
        """The [64-64-32] AE tower and [320-200-80] Ali-CCP tower build."""
        for sizes in ([64, 64, 32], [320, 200, 80]):
            tower = MLP(16, sizes, rng, out_features=1)
            assert tower(Tensor(np.ones((2, 16)))).shape == (2, 1)


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_out_of_range_rejected(self, rng):
        emb = Embedding(10, 4, rng)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_invalid_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            Embedding(0, 4, rng)

    def test_gradient_accumulates_for_repeated_ids(self, rng):
        emb = Embedding(5, 3, rng)
        emb(np.array([2, 2, 2])).sum().backward()
        grad = emb.weight.grad
        assert np.allclose(grad[2], 3.0)
        assert np.allclose(grad[[0, 1, 3, 4]], 0.0)

    def test_non_contiguous_and_int32_indices_checked(self, rng):
        """The fast uint64-view scan only covers contiguous int64; the
        fallback path must still reject bad ids for other layouts."""
        emb = Embedding(10, 4, rng)
        strided = np.array([1, 12, 3, 12], dtype=np.int64)[::2]  # [1, 3]
        assert emb(strided).shape == (2, 4)
        with pytest.raises(IndexError):
            emb(np.array([1, 12], dtype=np.int64)[::-1])
        with pytest.raises(IndexError):
            emb(np.array([-1], dtype=np.int32))

    def test_trusted_indices_skips_prescan(self, rng):
        emb = Embedding(10, 4, rng)
        with trusted_indices():
            # In range: works without the defensive pre-scan.
            assert emb(np.array([0, 9])).shape == (2, 4)
            # Negative ids are no longer rejected -- numpy wraps them.
            out = emb(np.array([-1]))
            assert np.array_equal(out.data[0], emb.weight.data[9])
        # Context restored: validation is back on.
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_trusted_indices_restores_on_exception(self, rng):
        emb = Embedding(10, 4, rng)
        with pytest.raises(RuntimeError):
            with trusted_indices():
                raise RuntimeError("boom")
        with pytest.raises(IndexError):
            emb(np.array([10]))


class TestDropoutAndActivations:
    def test_dropout_rate_validation(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)

    def test_dropout_mean_preserved(self, rng):
        drop = Dropout(0.3, rng)
        x = Tensor(np.ones((200, 200)))
        out = drop(x)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_activation_module(self, rng):
        act = get_activation("tanh")
        assert np.allclose(act(Tensor([0.0])).data, [0.0])

    def test_unknown_activation_lists_options(self):
        with pytest.raises(KeyError, match="relu"):
            get_activation("swish")

    def test_identity_activation(self):
        f = get_activation("identity")
        x = Tensor([1.0, -1.0])
        assert np.allclose(f(x).data, x.data)


class TestInit:
    def test_xavier_uniform_bounds(self, rng):
        w = init.xavier_uniform((100, 100), rng)
        limit = np.sqrt(6.0 / 200)
        assert np.all(np.abs(w) <= limit)

    def test_he_uniform_bounds(self, rng):
        w = init.he_uniform((2000, 50), rng)
        limit = np.sqrt(6.0 / 2000)
        assert np.all(np.abs(w) <= limit)
        assert abs(w.std() - np.sqrt(2.0 / 2000)) < 0.005

    def test_zeros(self):
        assert np.allclose(init.zeros((3, 3)), 0.0)

    def test_fan_requires_2d(self, rng):
        with pytest.raises(ValueError):
            init.xavier_uniform((5,), rng)

    def test_normal_std(self, rng):
        w = init.normal((10000,), rng, std=0.05)
        assert abs(w.std() - 0.05) < 0.005
