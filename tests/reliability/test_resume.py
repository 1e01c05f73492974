"""Checkpoint/resume and divergence-guard behaviour of the trainer.

The two headline guarantees:

* a run killed mid-epoch and resumed via ``fit(resume_from=...)``
  produces bit-identical final parameters and history to an
  uninterrupted run with the same seed;
* an injected NaN batch trips the loss guard, rolls the model back,
  halves the learning rate, and training still completes with finite
  losses.
"""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.reliability import (
    CheckpointCorruptError,
    FaultInjector,
    FaultSpec,
    LossGuardConfig,
)
from repro.training import TrainConfig, create_engine
from repro.training.callbacks import CheckpointCallback
from tests.fit_callbacks import reliability_stack

pytestmark = pytest.mark.robustness


@pytest.fixture(scope="module")
def world():
    train, test, _ = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=2000, n_test=300
    )
    return train, test


MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
TRAIN_CONFIG = TrainConfig(epochs=4, batch_size=256, learning_rate=0.01, seed=7)


def quiet_reliability(config=TRAIN_CONFIG, **overrides):
    """Reliability stack with the loss guard disabled."""
    defaults = dict(guard=None)
    defaults.update(overrides)
    return reliability_stack(config, **defaults)


def fit(model, config, train, validation=None, callbacks=(), resume_from=None):
    return create_engine(model, config).fit(
        train, validation=validation, resume_from=resume_from, callbacks=callbacks
    )


class KilledMidRun(Exception):
    pass


def train_and_kill(world, checkpoint_dir, die_after_steps):
    """Run training that 'crashes' after N optimizer steps."""
    train, test = world
    model = build_model("dcmt", train.schema, MODEL_CONFIG)
    engine = create_engine(model, TRAIN_CONFIG)
    original_step = engine.optimizer.step
    calls = {"n": 0}

    def dying_step():
        calls["n"] += 1
        if calls["n"] > die_after_steps:
            raise KilledMidRun
        original_step()

    engine.optimizer.step = dying_step
    with pytest.raises(KilledMidRun):
        engine.fit(
            train,
            validation=test,
            callbacks=quiet_reliability(
                checkpoint_dir=str(checkpoint_dir), checkpoint_every_n_batches=2
            ),
        )


class TestBitExactResume:
    def test_kill_mid_epoch_and_resume(self, world, tmp_path):
        train, test = world
        # Uninterrupted reference run.
        reference = build_model("dcmt", train.schema, MODEL_CONFIG)
        ref_history = fit(
            reference, TRAIN_CONFIG, train, test, callbacks=quiet_reliability()
        )

        # Kill a checkpointing run mid-epoch 1 (8 batches per epoch).
        train_and_kill(world, tmp_path, die_after_steps=13)
        assert list(tmp_path.glob("ckpt-*.ckpt"))

        # Resume in a FRESH process-equivalent: new model (different
        # init seed -- everything must come from the snapshot), new
        # engine.
        resumed = build_model(
            "dcmt", train.schema, MODEL_CONFIG.with_overrides(seed=99)
        )
        history = fit(
            resumed,
            TRAIN_CONFIG,
            train,
            test,
            callbacks=quiet_reliability(
                checkpoint_dir=str(tmp_path), checkpoint_every_n_batches=2
            ),
            resume_from=tmp_path,
        )

        ref_state = reference.state_dict()
        resumed_state = resumed.state_dict()
        for key in ref_state:
            assert np.array_equal(ref_state[key], resumed_state[key]), key
        assert history.to_dict() == ref_history.to_dict()

    def test_resume_from_epoch_boundary(self, world, tmp_path):
        train, test = world
        reference = build_model("dcmt", train.schema, MODEL_CONFIG)
        ref_history = fit(
            reference, TRAIN_CONFIG, train, test, callbacks=quiet_reliability()
        )

        # Train only the first two epochs, checkpointing at boundaries.
        short = build_model("dcmt", train.schema, MODEL_CONFIG)
        short_config = TRAIN_CONFIG.with_overrides(epochs=2)
        fit(
            short,
            short_config,
            train,
            test,
            callbacks=quiet_reliability(
                short_config, checkpoint_dir=str(tmp_path)
            ),
        )

        resumed = build_model(
            "dcmt", train.schema, MODEL_CONFIG.with_overrides(seed=55)
        )
        history = fit(
            resumed,
            TRAIN_CONFIG,
            train,
            test,
            callbacks=quiet_reliability(checkpoint_dir=str(tmp_path)),
            resume_from=tmp_path,
        )

        ref_state = reference.state_dict()
        for key, value in resumed.state_dict().items():
            assert np.array_equal(ref_state[key], value), key
        assert history.epoch_losses == ref_history.epoch_losses
        assert history.validation_cvr_auc == ref_history.validation_cvr_auc

    def test_resume_skips_corrupt_newest_checkpoint(self, world, tmp_path):
        train, test = world
        train_and_kill(world, tmp_path, die_after_steps=13)
        newest = sorted(tmp_path.glob("ckpt-*.ckpt"))[-1]
        newest.write_bytes(b"truncated garbage")

        resumed = build_model("dcmt", train.schema, MODEL_CONFIG)
        history = fit(
            resumed,
            TRAIN_CONFIG,
            train,
            test,
            callbacks=quiet_reliability(),
            resume_from=tmp_path,
        )
        assert history.n_epochs_run == TRAIN_CONFIG.epochs
        assert all(np.isfinite(x) for x in history.epoch_losses)

    def test_resume_from_empty_dir_raises(self, world, tmp_path):
        train, test = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(CheckpointCorruptError, match="no valid checkpoint"):
            fit(model, TRAIN_CONFIG, train, test, resume_from=empty)

    def test_early_stopping_state_survives_resume(self, world, tmp_path):
        train, test = world
        config = TRAIN_CONFIG.with_overrides(
            epochs=5, early_stopping_patience=1
        )
        reference = build_model("dcmt", train.schema, MODEL_CONFIG)
        ref_history = fit(
            reference, config, train, test, callbacks=quiet_reliability(config)
        )

        short = build_model("dcmt", train.schema, MODEL_CONFIG)
        short_config = config.with_overrides(epochs=2)
        fit(
            short,
            short_config,
            train,
            test,
            callbacks=quiet_reliability(
                short_config, checkpoint_dir=str(tmp_path)
            ),
        )
        resumed = build_model("dcmt", train.schema, MODEL_CONFIG)
        history = fit(
            resumed,
            config,
            train,
            test,
            callbacks=quiet_reliability(config),
            resume_from=tmp_path,
        )
        assert history.stopped_early == ref_history.stopped_early
        assert history.epoch_losses == ref_history.epoch_losses


class TestLossGuardIntegration:
    def test_nan_batch_trips_guard_and_training_recovers(self, world):
        train, test = world
        injector = FaultInjector(
            FaultSpec(nan_feature_rate=0.2, nan_fraction=0.5), seed=3
        )
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        config = TrainConfig(epochs=3, batch_size=256, learning_rate=0.01, seed=7)
        engine = create_engine(model, config)
        history = engine.fit(
            train,
            callbacks=reliability_stack(
                config,
                guard=LossGuardConfig(),
                fault_injector=injector,
            ),
        )

        trips = [e for e in history.events if e.reason == "non_finite_loss"]
        assert trips, "NaN batches must trip the guard"
        assert all(e.action == "rollback_lr_halved" for e in trips)
        # LR was halved at least once per distinct trip chain.
        assert engine.optimizer.lr < TRAIN_CONFIG.learning_rate
        # Training completed with finite losses and finite weights.
        assert all(np.isfinite(x) for x in history.epoch_losses)
        for p in model.parameters():
            assert np.all(np.isfinite(p.data))

    def test_spike_trips_guard(self, world):
        """A label-poisoned burst registers as either a spike or stays
        finite -- the guard must never let a NaN through to the weights."""
        train, _ = world
        from repro.reliability import LossGuard

        guard = LossGuard(LossGuardConfig(min_history=4, z_threshold=3.0))
        for value in [1.0, 1.01, 0.99, 1.02, 1.0]:
            guard.observe(value)
        assert guard.observe(10.0) == "loss_spike"

    def test_clean_run_records_no_events(self, world):
        train, test = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        config = TrainConfig(epochs=2, batch_size=256, seed=7)
        history = fit(
            model,
            config,
            train,
            test,
            callbacks=reliability_stack(config),
        )
        assert history.events == []


class TestConfigValidation:
    def test_train_config_validate(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError, match="weight_decay"):
            TrainConfig(weight_decay=-0.1)
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(early_stopping_patience=-1)

    def test_trainer_revalidates(self, world):
        """The engine constructor calls config.validate() explicitly."""
        train, _ = world
        model = build_model("esmm", train.schema, MODEL_CONFIG)
        config = TrainConfig(epochs=1)
        object.__setattr__(config, "epochs", 0)  # bypass __post_init__
        with pytest.raises(ValueError, match="epochs"):
            create_engine(model, config)

    def test_reliability_config_validation(self, tmp_path):
        """The fault-tolerance callbacks reject nonsensical settings."""
        with pytest.raises(ValueError, match="keep"):
            CheckpointCallback(str(tmp_path), keep=0)
        with pytest.raises(ValueError, match="every_n_batches"):
            CheckpointCallback(str(tmp_path), every_n_batches=0)
