"""End-to-end integration tests across the whole stack.

Each test exercises a complete user journey at moderate scale with a
fixed seed; assertions use wide margins so they are robust to numeric
noise while still pinning the qualitative behaviour the library
promises.
"""

import numpy as np
import pytest

from repro.core import DCMT
from repro.data import load_scenario
from repro.metrics import auc
from repro.models import ModelConfig, build_model
from repro.training import TrainConfig, evaluate_model, fit_model


@pytest.fixture(scope="module")
def medium_world():
    """A mid-size AE-ES world: enough data for stable orderings."""
    return load_scenario("ae_es", n_train=20_000, n_test=8_000)


@pytest.fixture(scope="module")
def trained(medium_world):
    train, test, _ = medium_world
    config = ModelConfig(embedding_dim=8, hidden_sizes=(32, 16), seed=0)
    tconfig = TrainConfig(epochs=4, batch_size=1024, learning_rate=0.003, seed=0)
    models = {}
    for name in ("naive", "esmm", "dcmt"):
        model = build_model(name, train.schema, config)
        fit_model(model, train, tconfig)
        models[name] = model
    return models


class TestEndToEnd:
    def test_all_models_beat_random_on_ctr(self, medium_world, trained):
        _, test, _ = medium_world
        for model in trained.values():
            result = evaluate_model(model, test)
            assert result.ctr_auc > 0.65

    def test_entire_space_models_beat_naive_cvr(self, medium_world, trained):
        """The library's core promise: entire-space training beats
        click-space training on the full-space CVR metric."""
        _, test, _ = medium_world
        scores = {
            name: auc(test.conversions, model.predict(test.full_batch()).cvr)
            for name, model in trained.items()
        }
        assert scores["dcmt"] > scores["naive"]
        assert scores["esmm"] > scores["naive"]

    def test_dcmt_best_calibrated_over_d(self, medium_world, trained):
        """Fig. 7's offline analogue: DCMT's mean prediction is the
        closest to the posterior CVR over D."""
        _, test, _ = medium_world
        posterior = float(test.oracle_cvr.mean())
        gaps = {
            name: abs(model.predict(test.full_batch()).cvr.mean() - posterior)
            for name, model in trained.items()
        }
        assert gaps["dcmt"] == min(gaps.values())

    def test_evaluation_result_consistency(self, medium_world, trained):
        _, test, _ = medium_world
        result = evaluate_model(trained["dcmt"], test)
        # entire-space posterior sits between the N and O posteriors
        assert result.posterior_cvr_n < result.posterior_cvr_d < result.posterior_cvr_o
        # the gauc is a real number on this dense-enough world
        assert result.cvr_gauc is None or 0.0 < result.cvr_gauc < 1.0

    def test_checkpoint_roundtrip_preserves_metrics(
        self, medium_world, trained, tmp_path
    ):
        from repro.nn import load_checkpoint, save_checkpoint

        train, test, _ = medium_world
        save_checkpoint(trained["dcmt"], tmp_path / "m.npz")
        clone = DCMT(
            train.schema, ModelConfig(embedding_dim=8, hidden_sizes=(32, 16), seed=9)
        )
        load_checkpoint(clone, tmp_path / "m.npz")
        a = evaluate_model(trained["dcmt"], test)
        b = evaluate_model(clone, test)
        assert a.cvr_auc_d == b.cvr_auc_d

    def test_downsampled_training_still_works(self, medium_world):
        """Train on a non-click-downsampled log (every click kept, 30%
        of unclicked exposures); the model remains usable."""
        train, test, _ = medium_world
        keep = (train.clicks == 1) | (np.random.default_rng(0).random(len(train)) < 0.3)
        sub = train.subset(np.flatnonzero(keep))
        model = build_model(
            "esmm",
            train.schema,
            ModelConfig(embedding_dim=8, hidden_sizes=(32, 16), seed=0),
        )
        fit_model(
            model, sub, TrainConfig(epochs=3, batch_size=1024, learning_rate=0.003)
        )
        result = evaluate_model(model, test)
        assert result.ctr_auc > 0.6
