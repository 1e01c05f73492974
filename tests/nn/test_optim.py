"""Tests for Adam, weight decay, and gradient clipping."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional, ops
from repro.nn import MLP, Linear
from repro.nn.module import Parameter
from repro.optim import Adam, clip_global_norm
from repro.optim.optimizer import Optimizer


def quadratic_param(value=5.0):
    return Parameter(np.array([value]))


class GradientDescent(Optimizer):
    """Plain ``w -= lr * grad`` step.

    Adam's first step moves each element by about ``lr * sign(grad)``,
    which hides the size of the decay term; a linear step shows it at
    full strength.
    """

    def __init__(self, params, lr, weight_decay=0.0):
        super().__init__(params, weight_decay)
        self.lr = lr

    def step(self):
        for p in self.params:
            p.data -= self.lr * self._grad(p)


class TestValidation:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.0)
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=-1.0)

    def test_bad_betas(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], betas=(1.0, 0.9))

    def test_bad_weight_decay(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], weight_decay=-0.1)

    def test_base_step_not_implemented(self):
        opt = Optimizer([quadratic_param()])
        with pytest.raises(NotImplementedError):
            opt.step()


class TestConvergence:
    def _minimize(self, optimizer_factory, steps=200):
        p = quadratic_param(5.0)
        opt = optimizer_factory([p])
        for _ in range(steps):
            loss = (p * p).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        return float(p.data[0])

    def test_adam_minimizes_quadratic(self):
        final = self._minimize(lambda ps: Adam(ps, lr=0.1), steps=400)
        assert abs(final) < 1e-3

    def test_adam_trains_classifier(self, rng):
        X = rng.normal(size=(128, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        model = MLP(4, [8], rng, out_features=1)
        opt = Adam(model.parameters(), lr=0.02)
        first_loss = None
        for _ in range(150):
            logits = ops.squeeze(model(Tensor(X)), axis=1)
            loss = functional.binary_cross_entropy(ops.sigmoid(logits), y)
            if first_loss is None:
                first_loss = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.3 * first_loss


class TestWeightDecay:
    def test_decay_shrinks_unused_weights(self):
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        # No loss gradient at all: decay alone should shrink the weight.
        for _ in range(10):
            p.grad = np.zeros_like(p.data)
            opt.step()
        assert abs(float(p.data[0])) < 1.0

    def test_decay_matches_explicit_l2(self, rng):
        """weight_decay in the optimizer == adding lambda*||w||^2 to loss."""
        w0 = rng.normal(size=(3, 2))
        lam = 0.01

        pa = Parameter(w0.copy())
        opt_a = GradientDescent([pa], lr=0.1, weight_decay=lam)
        loss_a = (pa * pa * pa).sum()  # arbitrary smooth loss
        loss_a.backward()
        opt_a.step()

        pb = Parameter(w0.copy())
        opt_b = GradientDescent([pb], lr=0.1)
        loss_b = (pb * pb * pb).sum() + lam * (pb * pb).sum()
        loss_b.backward()
        opt_b.step()

        assert np.allclose(pa.data, pb.data, atol=1e-10)


class TestClipGlobalNorm:
    def test_no_clip_below_threshold(self):
        p = quadratic_param(1.0)
        p.grad = np.array([0.5])
        norm = clip_global_norm([p], max_norm=10.0)
        assert np.isclose(norm, 0.5)
        assert np.allclose(p.grad, [0.5])

    def test_clip_above_threshold(self):
        p = quadratic_param(1.0)
        p.grad = np.array([3.0, 4.0][0:1]) * 0 + np.array([5.0])
        clip_global_norm([p], max_norm=1.0)
        assert np.isclose(np.abs(p.grad).max(), 1.0, atol=1e-6)

    def test_multi_param_global_norm(self):
        p1, p2 = quadratic_param(), quadratic_param()
        p1.grad = np.array([3.0])
        p2.grad = np.array([4.0])
        norm = clip_global_norm([p1, p2], max_norm=1.0)
        assert np.isclose(norm, 5.0)
        total = np.sqrt(p1.grad[0] ** 2 + p2.grad[0] ** 2)
        assert np.isclose(total, 1.0, atol=1e-6)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_global_norm([quadratic_param()], 0.0)

    def test_none_grads_skipped(self):
        p = quadratic_param()
        assert clip_global_norm([p], 1.0) == 0.0


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            model = Linear(3, 1, rng)
            opt = Adam(model.parameters(), lr=0.01)
            X = np.random.default_rng(0).normal(size=(16, 3))
            for _ in range(5):
                loss = (model(Tensor(X)) ** 2).sum()
                opt.zero_grad()
                loss.backward()
                opt.step()
            return model.weight.data.copy()

        assert np.array_equal(run(42), run(42))
        assert not np.array_equal(run(42), run(43))


class TestEmbeddingTableSteps:
    """Optimizer steps on an embedding table fed by ``take_rows``.

    The table's gradient is a dense array with zero rows where no id was
    looked up; these tests pin what Adam does with those rows.
    """

    def setup_method(self):
        rng = np.random.default_rng(13)
        self.weights = rng.normal(size=(30, 4)) * 0.1
        # Rows 25..29 are never looked up.
        self.lookups = [
            rng.integers(0, 25, size=16),
            np.array([0, 0, 0, 7]),
            rng.integers(0, 25, size=8),
        ]

    def _run(self, opt, table, dense_w, start, stop):
        for step in range(start, stop):
            gathered = ops.take_rows(table, self.lookups[step % len(self.lookups)])
            loss = ((gathered * dense_w) * gathered).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()

    def test_adam_untouched_rows_pristine(self):
        table = Parameter(self.weights.copy())
        opt = Adam([table, Parameter(np.linspace(-1.0, 1.0, 4))], lr=0.01)
        self._run(opt, table, opt.params[1], 0, 12)
        assert np.array_equal(table.data[25:], self.weights[25:])
        assert np.all(opt._m[0][25:] == 0.0)
        assert np.all(opt._v[0][25:] == 0.0)

    def test_adam_state_roundtrip_continues_exact(self):
        """Snapshot mid-run, restore into a fresh Adam, continue: the
        result matches an uninterrupted run bit for bit."""
        t_ref = Parameter(self.weights.copy())
        w_ref = Parameter(np.linspace(-1.0, 1.0, 4))
        opt_ref = Adam([t_ref, w_ref], lr=0.01)
        self._run(opt_ref, t_ref, w_ref, 0, 10)

        t = Parameter(self.weights.copy())
        w = Parameter(np.linspace(-1.0, 1.0, 4))
        opt = Adam([t, w], lr=0.01)
        self._run(opt, t, w, 0, 4)
        state = opt.state_dict()
        opt2 = Adam([t, w], lr=0.01)
        opt2.load_state_dict(state)
        self._run(opt2, t, w, 4, 10)

        assert np.array_equal(t.data, t_ref.data)
        assert np.array_equal(w.data, w_ref.data)
        for a, b in zip(opt2._m, opt_ref._m):
            assert np.array_equal(a, b)
        for a, b in zip(opt2._v, opt_ref._v):
            assert np.array_equal(a, b)
