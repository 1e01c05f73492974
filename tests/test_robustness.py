"""Failure injection and robustness tests across module boundaries.

These tests feed every model degenerate or adversarial batches --
all-clicked, all-unclicked, single-row, constant features, extreme
dense values -- and assert losses and predictions stay finite.  CVR
pipelines die in production from exactly these edge cases (a batch with
zero clicks makes naive IPW divide by zero).
"""

import numpy as np
import pytest

from repro.data.dataset import Batch
from repro.data import load_scenario
from repro.models import MODEL_REGISTRY, ModelConfig, build_model

pytestmark = pytest.mark.robustness

ALL_MODELS = sorted(MODEL_REGISTRY)


@pytest.fixture(scope="module")
def world():
    train, _, _ = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=1500, n_test=200
    )
    return train


@pytest.fixture
def config():
    return ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)


def make_batch(template: Batch, indices: np.ndarray, clicks=None, conversions=None):
    return Batch(
        sparse={k: v[indices] for k, v in template.sparse.items()},
        dense={k: v[indices] for k, v in template.dense.items()},
        clicks=template.clicks[indices] if clicks is None else clicks,
        conversions=(
            template.conversions[indices] if conversions is None else conversions
        ),
    )


@pytest.mark.parametrize("name", ALL_MODELS)
class TestDegenerateBatches:
    def test_all_unclicked_batch(self, name, world, config):
        """A batch from deep inside N: no clicks, no conversions."""
        model = build_model(name, world.schema, config)
        template = world.full_batch()
        idx = np.flatnonzero(world.clicks == 0)[:64]
        batch = make_batch(template, idx)
        loss = model.loss(batch)
        assert np.isfinite(loss.item())
        loss.backward()  # gradients must also be finite
        for p in model.parameters():
            if p.grad is not None:
                assert np.all(np.isfinite(p.grad))

    def test_all_clicked_batch(self, name, world, config):
        model = build_model(name, world.schema, config)
        template = world.full_batch()
        idx = np.flatnonzero(world.clicks == 1)
        if len(idx) < 2:
            pytest.skip("not enough clicks in the tiny world")
        batch = make_batch(template, idx)
        loss = model.loss(batch)
        assert np.isfinite(loss.item())

    def test_single_row_batch(self, name, world, config):
        model = build_model(name, world.schema, config)
        batch = make_batch(world.full_batch(), np.array([0]))
        loss = model.loss(batch)
        assert np.isfinite(loss.item())
        preds = model.predict(batch)
        assert preds.cvr.shape == (1,)

    def test_extreme_dense_values(self, name, world, config):
        """Dense features 100x outside the training range."""
        model = build_model(name, world.schema, config)
        template = world.full_batch()
        idx = np.arange(32)
        batch = make_batch(template, idx)
        batch.dense = {k: v * 100.0 for k, v in batch.dense.items()}
        loss = model.loss(batch)
        assert np.isfinite(loss.item())
        preds = model.predict(batch)
        assert np.all(np.isfinite(preds.cvr))

    def test_constant_features(self, name, world, config):
        """Every row identical: predictions must agree."""
        model = build_model(name, world.schema, config)
        template = world.full_batch()
        idx = np.zeros(16, dtype=np.int64)
        batch = make_batch(template, idx)
        preds = model.predict(batch)
        assert np.allclose(preds.cvr, preds.cvr[0])
        assert np.allclose(preds.ctr, preds.ctr[0])


class TestTrainingRobustness:
    def test_many_steps_stay_finite(self, world, config):
        """Long aggressive training (large lr) must not NaN out thanks
        to propensity clipping and stable losses."""
        from repro.data.batching import batch_iterator
        from repro.optim import Adam

        model = build_model("dcmt", world.schema, config)
        opt = Adam(model.parameters(), lr=0.05)  # deliberately hot
        rng = np.random.default_rng(0)
        for _ in range(3):
            for batch in batch_iterator(world, 256, rng):
                loss = model.loss(batch)
                opt.zero_grad()
                loss.backward()
                opt.step()
                assert np.isfinite(loss.item())
        preds = model.predict(world.full_batch())
        assert np.all(np.isfinite(preds.cvr))

    def test_trainer_with_batch_larger_than_dataset(self, world, config):
        from repro.training import TrainConfig, fit_model

        model = build_model("esmm", world.schema, config)
        history = fit_model(
            model, world, TrainConfig(epochs=1, batch_size=10_000, learning_rate=0.01)
        )
        assert np.isfinite(history.epoch_losses[0])

    def test_drop_last_with_tiny_dataset(self, world, config):
        """drop_last with batch > dataset would yield zero batches; the
        misconfiguration fails loudly instead of training on nothing
        (an empty epoch used to pass silently with loss 0.0)."""
        from repro.training import TrainConfig, fit_model

        model = build_model("esmm", world.schema, config)
        with pytest.raises(ValueError, match="would yield zero batches"):
            fit_model(
                model, world, TrainConfig(epochs=1, batch_size=10_000, drop_last=True)
            )


class TestSNIPSDegeneracy:
    def test_snips_with_all_clicked(self):
        from repro.core.losses import snips_weights

        w_f, w_cf = snips_weights(np.ones(8), np.full(8, 0.5))
        assert np.isfinite(w_f).all()
        assert np.isfinite(w_cf).all()

    def test_snips_with_extreme_propensities(self):
        from repro.core.losses import snips_weights

        clicks = np.array([1, 0, 1, 0])
        propensity = np.array([1e-9, 1.0 - 1e-9, 0.5, 0.5])
        w_f, w_cf = snips_weights(clicks, propensity, floor=0.05)
        assert np.isfinite(w_f).all()
        assert np.isfinite(w_cf).all()
        assert np.isclose(w_f.sum(), 1.0)
