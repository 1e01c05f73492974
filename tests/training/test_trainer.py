"""Tests for ``fit_model``, TrainConfig, and the evaluation harness."""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.reliability import CheckpointManager, load_snapshot, save_snapshot
from repro.training import (
    TrainConfig,
    TrainingHistory,
    create_engine,
    evaluate_model,
    fit_model,
)
from repro.training.evaluation import EvaluationResult
from tests.fit_callbacks import reliability_stack


@pytest.fixture(scope="module")
def world():
    train, test, _ = load_scenario(
        "ae_es", n_users=60, n_items=80, n_train=4000, n_test=1200
    )
    return train, test


@pytest.fixture
def model(world):
    train, _ = world
    return build_model(
        "dcmt", train.schema, ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
    )


class TestTrainConfig:
    def test_defaults_match_paper(self):
        config = TrainConfig()
        assert config.epochs == 5
        assert config.batch_size == 1024
        assert config.learning_rate == 0.001
        assert config.weight_decay == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"weight_decay": -1.0},
            {"grad_clip": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_with_overrides(self):
        config = TrainConfig().with_overrides(epochs=2)
        assert config.epochs == 2
        assert config.batch_size == 1024


class TestTrainer:
    def test_loss_decreases_over_epochs(self, world, model):
        train, _ = world
        history = fit_model(
            model, train, TrainConfig(epochs=4, batch_size=512, learning_rate=0.01)
        )
        assert history.n_epochs_run == 4
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_model_left_in_eval_mode(self, world, model):
        train, _ = world
        fit_model(model, train, TrainConfig(epochs=1, batch_size=512))
        assert not model.training

    def test_validation_metrics_recorded(self, world, model):
        train, test = world
        history = fit_model(
            model, train, TrainConfig(epochs=2, batch_size=512), validation=test
        )
        assert len(history.validation_cvr_auc) == 2

    def test_early_stopping(self, world):
        train, test = world
        model = build_model(
            "dcmt",
            train.schema,
            ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=1),
        )
        # Patience 1 with a deliberately tiny lr: the metric plateaus
        # quickly and training must stop before 10 epochs.
        history = fit_model(
            model,
            train,
            TrainConfig(
                epochs=10,
                batch_size=512,
                learning_rate=1e-6,
                early_stopping_patience=1,
            ),
            validation=test,
        )
        assert history.stopped_early
        assert history.n_epochs_run < 10

    def test_grad_clip_none_allowed(self, world, model):
        train, _ = world
        history = fit_model(
            model, train, TrainConfig(epochs=1, batch_size=512, grad_clip=None)
        )
        assert np.isfinite(history.epoch_losses[0])

    def test_deterministic(self, world):
        train, _ = world

        def run():
            m = build_model(
                "esmm",
                train.schema,
                ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=7),
            )
            fit_model(m, train, TrainConfig(epochs=1, batch_size=512, seed=7))
            return m.predict(train.full_batch()).cvr

        assert np.array_equal(run(), run())


class TestHistorySerialization:
    def test_history_drops_legacy_op_profile(self):
        """Histories saved while the trainer still had an op profiler
        carry an ``op_profile`` key; loading one drops it."""
        legacy = {
            "epoch_losses": [0.7, 0.5],
            "validation_cvr_auc": [0.61, 0.63],
            "stopped_early": False,
            "events": [],
            "op_profile": {"ops": {"backward": {"calls": 4}}},
        }
        restored = TrainingHistory.from_dict(legacy)
        assert restored.epoch_losses == [0.7, 0.5]
        assert restored.validation_cvr_auc == [0.61, 0.63]
        assert "op_profile" not in restored.to_dict()

    def test_resume_from_snapshot_with_legacy_op_profile(self, world, tmp_path):
        """``fit(resume_from=...)`` accepts a checkpoint whose saved
        history carries ``op_profile`` and still lands bit-exactly on
        the uninterrupted run."""
        train, _ = world
        config = TrainConfig(epochs=2, batch_size=512, seed=3)

        def reliability():
            return reliability_stack(
                config, checkpoint_dir=str(tmp_path), checkpoint_every_n_batches=2
            )

        model_config = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)

        reference = build_model("dcmt", train.schema, model_config)
        expected = fit_model(reference, train, config)

        class Killed(RuntimeError):
            pass

        doomed = build_model("dcmt", train.schema, model_config)
        engine = create_engine(doomed, config)
        real_step, calls = engine.optimizer.step, [0]

        def dying_step():
            calls[0] += 1
            if calls[0] > 11:
                raise Killed
            real_step()

        engine.optimizer.step = dying_step
        with pytest.raises(Killed):
            engine.fit(train, callbacks=reliability())
        latest = CheckpointManager(tmp_path).latest()
        snapshot = load_snapshot(latest)
        snapshot.history["op_profile"] = {"ops": {"backward": {"calls": 10}}}
        save_snapshot(snapshot, latest)

        resumed = build_model(
            "dcmt", train.schema, model_config.with_overrides(seed=99)
        )
        history = create_engine(resumed, config).fit(
            train, resume_from=tmp_path, callbacks=reliability()
        )
        assert history.epoch_losses == expected.epoch_losses
        assert "op_profile" not in history.to_dict()
        for name, value in reference.state_dict().items():
            assert np.array_equal(resumed.state_dict()[name], value)

    def test_history_roundtrips_events(self):
        """to_dict/from_dict are exact inverses, guard events included
        (even a NaN loss value survives the trip)."""
        from repro.reliability.guards import GuardEvent

        history = TrainingHistory(
            epoch_losses=[0.7, 0.5],
            validation_cvr_auc=[0.61, 0.63],
            stopped_early=True,
            events=[
                GuardEvent(
                    epoch=0,
                    batch=3,
                    reason="non_finite_loss",
                    value=float("nan"),
                    action="rollback_lr_halved",
                    lr_after=0.005,
                ),
                GuardEvent(
                    epoch=1,
                    batch=7,
                    reason="loss_spike",
                    value=4.2,
                    action="rollback_lr_halved",
                    lr_after=0.0025,
                ),
            ],
        )
        restored = TrainingHistory.from_dict(history.to_dict())
        assert restored.epoch_losses == history.epoch_losses
        assert restored.validation_cvr_auc == history.validation_cvr_auc
        assert restored.stopped_early is True
        assert len(restored.events) == 2
        for got, want in zip(restored.events, history.events):
            assert got.epoch == want.epoch
            assert got.batch == want.batch
            assert got.reason == want.reason
            assert got.action == want.action
            assert got.lr_after == want.lr_after
            assert got.value == want.value or (
                np.isnan(got.value) and np.isnan(want.value)
            )


class TestEvaluation:
    def test_full_metric_set_with_oracle(self, world, model):
        train, test = world
        fit_model(model, train, TrainConfig(epochs=1, batch_size=512))
        result = evaluate_model(model, test)
        assert isinstance(result, EvaluationResult)
        assert 0 < result.ctr_auc < 1
        assert result.cvr_auc_d is not None
        assert result.posterior_cvr_d is not None
        assert result.cvr_prediction_gap is not None

    def test_without_oracle(self, world, model):
        train, test = world
        stripped = test.subset(np.arange(len(test)))
        stripped.oracle_ctr = None
        stripped.oracle_cvr = None
        stripped.oracle_conversion = None
        result = evaluate_model(model, stripped)
        assert result.cvr_auc_d is None
        assert result.cvr_prediction_gap is None
        assert result.ctcvr_auc is not None

    def test_degenerate_labels_give_none(self, world, model):
        train, test = world
        # A slice with no conversions at all: click-space AUC undefined.
        no_conv = test.subset(np.flatnonzero(test.conversions == 0)[:200])
        result = evaluate_model(model, no_conv)
        assert result.ctcvr_auc is None

    def test_predictions_reusable(self, world, model):
        train, test = world
        preds = model.predict(test.full_batch())
        a = evaluate_model(model, test, predictions=preds)
        b = evaluate_model(model, test)
        assert a.ctr_auc == b.ctr_auc
