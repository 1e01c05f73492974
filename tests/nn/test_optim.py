"""Tests for Adam, weight decay, and gradient clipping."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional, ops
from repro.nn import MLP, Linear
from repro.nn.module import Parameter
from repro.optim import Adam, ParamPlane, clip_global_norm
from repro.optim.optimizer import Optimizer


def quadratic_param(value=5.0):
    return Parameter(np.array([value]))


def decayed_grad(p, weight_decay):
    """Parameter gradient with L2 weight decay folded in; zeros (and no
    decay) for a parameter without a gradient."""
    if p.grad is None:
        return np.zeros_like(p.data)
    if not weight_decay:
        return p.grad
    return p.grad + 2.0 * weight_decay * p.data


class ReferenceAdam(Optimizer):
    """Per-parameter Adam: the loop :class:`Adam` replaced, kept as the
    bit-exact reference for its whole-plane step.

    Owns plain per-parameter arrays (no plane), so it also writes a
    ``state_dict`` in the per-parameter ``m``/``v`` list format.
    """

    def __init__(
        self, params, lr=0.001, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0
    ):
        super().__init__(params, weight_decay)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def state_dict(self):
        state = super().state_dict()
        state.update(
            type="Adam",
            lr=self.lr,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.eps,
            step_count=self._step_count,
            m=[m.copy() for m in self._m],
            v=[v.copy() for v in self._v],
        )
        return state

    def step(self):
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.params):
            grad = decayed_grad(p, self.weight_decay)
            m, v, target = self._m[i], self._v[i], p.data
            s1, s2 = np.empty_like(target), np.empty_like(target)
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=s1)
            m += s1
            v *= self.beta2
            np.multiply(grad, grad, out=s1)
            s1 *= 1.0 - self.beta2
            v += s1
            np.divide(m, bias1, out=s1)
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 *= self.lr
            s1 /= s2
            target -= s1


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
            p.data -= self.lr * decayed_grad(p, self.weight_decay)


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
        plane = ParamPlane([p])
        p.grad = np.array([0.5])
        norm = clip_global_norm(plane, max_norm=10.0)
        assert np.isclose(norm, 0.5)
        assert np.allclose(p.grad, [0.5])

    def test_clip_above_threshold(self):
        p = quadratic_param(1.0)
        plane = ParamPlane([p])
        p.grad = np.array([3.0, 4.0][0:1]) * 0 + np.array([5.0])
        clip_global_norm(plane, max_norm=1.0)
        assert np.isclose(np.abs(p.grad).max(), 1.0, atol=1e-6)

    def test_multi_param_global_norm(self):
        p1, p2 = quadratic_param(), quadratic_param()
        plane = ParamPlane([p1, p2])
        p1.grad = np.array([3.0])
        p2.grad = np.array([4.0])
        norm = clip_global_norm(plane, max_norm=1.0)
        assert np.isclose(norm, 5.0)
        total = np.sqrt(p1.grad[0] ** 2 + p2.grad[0] ** 2)
        assert np.isclose(total, 1.0, atol=1e-6)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_global_norm(ParamPlane([quadratic_param()]), 0.0)

    def test_none_grads_skipped(self):
        p = quadratic_param()
        assert clip_global_norm(ParamPlane([p]), 1.0) == 0.0

    def test_matches_per_parameter_clip_bit_for_bit(self, rng):
        """Per-parameter partial sums in order, then one multiply over
        the plane: the same bits as scaling each gradient in turn."""
        shapes = [(7, 3), (3,), (11, 2), (1,)]
        grads = [rng.normal(size=s) * 40.0 for s in shapes]
        params = [Parameter(np.zeros(s)) for s in shapes]
        plane = ParamPlane(params)
        for p, g in zip(params, grads):
            p.grad = g.copy()
        params[1].grad = None
        norm = clip_global_norm(plane, max_norm=1.0)

        total = 0.0
        for i, g in enumerate(grads):
            if i != 1:
                total += float(np.sum(g**2))
        expected = float(np.sqrt(total))
        assert norm == expected
        scale = 1.0 / (expected + 1e-12)
        for i, (p, g) in enumerate(zip(params, grads)):
            if i == 1:
                assert p.grad is None
                continue
            g *= scale
            assert np.array_equal(p.grad, g)


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


class TestPlaneStepMatchesReference:
    """The whole-plane Adam step against the per-parameter reference:
    parameters and both moments equal to the last bit, step by step."""

    SHAPES = [(5, 3), (3,), (9, 4), (1,), (2, 2, 2)]

    def _pair(self, weight_decay, seed=3):
        rng = np.random.default_rng(seed)
        values = [rng.normal(size=s) for s in self.SHAPES]
        ref = [Parameter(v.copy()) for v in values]
        new = [Parameter(v.copy()) for v in values]
        kwargs = dict(lr=0.01, weight_decay=weight_decay)
        return ReferenceAdam(ref, **kwargs), Adam(new, **kwargs)

    @staticmethod
    def _grads(step, none_index=None):
        rng = np.random.default_rng(100 + step)
        grads = [rng.normal(size=s) for s in TestPlaneStepMatchesReference.SHAPES]
        if none_index is not None:
            grads[none_index] = None
        return grads

    @staticmethod
    def _assert_identical(ref, new):
        for p_ref, p_new in zip(ref.params, new.params):
            assert np.array_equal(p_ref.data, p_new.data)
        for a, b in zip(ref._m + ref._v, new._m + new._v):
            assert np.array_equal(a, b)

    def _run(self, ref, new, steps, start=0, none_index=None):
        for step in range(start, start + steps):
            if none_index is not None:
                # Stale bytes in the missing parameter's view.
                new.plane.grad_views[none_index][...] = 1e6
            for opt in (ref, new):
                for p, g in zip(opt.params, self._grads(step, none_index)):
                    p.grad = None if g is None else g.copy()
                opt.step()
            self._assert_identical(ref, new)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_bit_identical_over_steps(self, weight_decay):
        ref, new = self._pair(weight_decay)
        self._run(ref, new, steps=6)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_none_grad_steps_on_zeros_without_decay(self, weight_decay):
        ref, new = self._pair(weight_decay)
        self._run(ref, new, steps=3)
        self._run(ref, new, steps=3, start=3, none_index=2)

    def test_eager_fresh_grad_and_plane_view_grad_agree(self):
        """A step whose ``p.grad`` is a fresh eager array and one whose
        ``p.grad`` already is the plane view give the same bits."""
        ref, new = self._pair(1e-2)
        self._run(ref, new, steps=2)
        grads = self._grads(7)
        for p, g in zip(ref.params, grads):
            p.grad = g.copy()
        ref.step()
        for p, view, g in zip(new.params, new.plane.grad_views, grads):
            np.copyto(view, g)
            p.grad = view
        new.step()
        self._assert_identical(ref, new)

    def test_rebound_data_is_adopted(self):
        ref, new = self._pair(1e-2)
        self._run(ref, new, steps=2)
        for opt in (ref, new):
            opt.params[0].data = opt.params[0].data * 0.5
        self._run(ref, new, steps=2, start=2)
        assert new.params[0].data is new.plane.data_views[0]

    def test_per_parameter_state_dict_resumes_bit_exactly(self):
        """A ``state_dict`` in the per-parameter ``m``/``v`` list format
        (what checkpoints hold) loads into the plane and continues."""
        ref, new = self._pair(1e-2)
        for step in range(4):
            for p, g in zip(ref.params, self._grads(step)):
                p.grad = g.copy()
            ref.step()
        state = ref.state_dict()
        for p_new, p_ref in zip(new.params, ref.params):
            p_new.data[...] = p_ref.data
        new.load_state_dict(state)
        assert new._step_count == ref._step_count == 4
        self._assert_identical(ref, new)
        self._run(ref, new, steps=4, start=4)
        assert set(new.state_dict()) == set(state)
        for a, b in zip(new.state_dict()["m"], ref.state_dict()["m"]):
            assert type(a) is np.ndarray and np.array_equal(a, b)
