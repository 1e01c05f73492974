"""The callback protocol: hook ordering, custom callbacks, guard LR decay.

Marked ``callbacks`` (``make verify-callbacks`` runs just this lane).
"""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.reliability import FaultInjector, FaultSpec, LossGuardConfig
from repro.training import TrainConfig, TrainingEngine
from repro.training.callbacks import (
    Callback,
    DriftReferenceCallback,
    FaultInjectionCallback,
    LossGuardCallback,
    ValidationCallback,
)

pytestmark = pytest.mark.callbacks


@pytest.fixture(scope="module")
def world():
    train, test, _ = load_scenario(
        "ae_es", n_users=30, n_items=40, n_train=1000, n_test=300
    )
    return train, test


@pytest.fixture
def model(world):
    train, _ = world
    return build_model(
        "dcmt", train.schema, ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
    )


def make_config(**overrides):
    base = dict(epochs=2, batch_size=256, learning_rate=0.01, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


class Recorder(Callback):
    """Appends every hook invocation to a shared trace."""

    def __init__(self, trace, name="recorder"):
        self.trace = trace
        self.name = name

    def _note(self, hook):
        self.trace.append((self.name, hook))

    def on_fit_start(self, ctx):
        self._note("fit_start")

    def on_epoch_start(self, ctx):
        self._note("epoch_start")

    def on_batch_start(self, ctx):
        self._note("batch_start")

    def on_loss_computed(self, ctx):
        self._note("loss_computed")

    def on_backward_end(self, ctx):
        self._note("backward_end")

    def on_batch_end(self, ctx):
        self._note("batch_end")

    def on_epoch_end(self, ctx):
        self._note("epoch_end")

    def on_fit_end(self, ctx):
        self._note("fit_end")


class TestHookProtocol:
    def test_hook_ordering_and_counts(self, world, model):
        train, _ = world
        trace = []
        config = make_config()
        TrainingEngine(model, config).fit(train, callbacks=[Recorder(trace)])

        hooks = [h for _, h in trace]
        n_batches = -(-len(train) // config.batch_size)  # ceil div
        assert hooks[0] == "fit_start"
        assert hooks[-1] == "fit_end"
        assert hooks.count("epoch_start") == config.epochs
        assert hooks.count("epoch_end") == config.epochs
        assert hooks.count("batch_start") == config.epochs * n_batches
        assert hooks.count("batch_end") == config.epochs * n_batches
        # Per-batch sequence is start -> loss -> backward -> end.
        first_batch = hooks[2:6]
        assert first_batch == [
            "batch_start",
            "loss_computed",
            "backward_end",
            "batch_end",
        ]
        # Epoch boundaries: epoch_end precedes the next epoch_start.
        assert hooks.index("epoch_end") < len(hooks) - 1 - hooks[::-1].index(
            "epoch_start"
        )

    def test_registration_order_within_hook(self, world, model):
        train, _ = world
        trace = []
        TrainingEngine(model, make_config(epochs=1)).fit(
            train, callbacks=[Recorder(trace, "a"), Recorder(trace, "b")]
        )
        starts = [name for name, hook in trace if hook == "fit_start"]
        assert starts == ["a", "b"]

    def test_skip_step_vetoes_batch(self, world, model):
        """A veto in on_loss_computed suppresses the step and batch_end."""
        train, _ = world

        class VetoSecond(Callback):
            def __init__(self):
                self.vetoed = 0

            def on_loss_computed(self, ctx):
                if ctx.batch_index == 1:
                    ctx.skip_step = True
                    self.vetoed += 1

        trace = []
        veto = VetoSecond()
        config = make_config(epochs=1)
        TrainingEngine(model, config).fit(train, callbacks=[veto, Recorder(trace)])
        hooks = [h for _, h in trace]
        n_batches = -(-len(train) // config.batch_size)
        assert veto.vetoed == 1
        assert hooks.count("batch_start") == n_batches
        assert hooks.count("batch_end") == n_batches - 1
        assert hooks.count("backward_end") == n_batches - 1

    def test_custom_callback_sees_losses(self, world, model):
        """The docs' custom-callback example: collect per-batch losses."""
        train, _ = world

        class LossTape(Callback):
            def __init__(self):
                self.losses = []

            def on_loss_computed(self, ctx):
                self.losses.append(ctx.loss_value)

        tape = LossTape()
        config = make_config(epochs=1)
        history = TrainingEngine(model, config).fit(train, callbacks=[tape])
        n_batches = -(-len(train) // config.batch_size)
        assert len(tape.losses) == n_batches
        assert history.epoch_losses[0] == pytest.approx(np.mean(tape.losses))

    def test_callbacks_do_not_outlive_their_fit(self, world, model):
        """Callbacks reach a fit only through ``fit(callbacks=...)``: the
        engine keeps none, so a later fit fires only its own."""
        train, _ = world
        first_trace, second_trace = [], []
        engine = TrainingEngine(model, make_config(epochs=1))
        engine.fit(train, callbacks=[Recorder(first_trace)])
        n_first = len(first_trace)
        engine.fit(train, callbacks=[Recorder(second_trace)])
        assert len(first_trace) == n_first
        assert second_trace


class TestStepLoopComposition:
    def test_tight_grad_clip_stays_finite(self, world, model):
        """clip_global_norm in the step loop keeps a tightly clipped fit
        finite."""
        train, _ = world
        config = make_config(epochs=2, grad_clip=0.1)
        history = TrainingEngine(model, config).fit(train)
        assert all(np.isfinite(x) for x in history.epoch_losses)
        assert all(np.all(np.isfinite(p.data)) for p in model.parameters())

    def test_guard_halves_lr_per_trip(self, world, model):
        """Every guard trip multiplies the optimizer's rate by LR_FACTOR."""
        train, _ = world
        config = make_config(epochs=2)
        engine = TrainingEngine(model, config)
        history = engine.fit(
            train,
            callbacks=[
                FaultInjectionCallback(
                    FaultInjector(
                        FaultSpec(nan_feature_rate=0.6, nan_fraction=0.5), seed=5
                    )
                ),
                LossGuardCallback(LossGuardConfig()),
            ],
        )
        trips = [e for e in history.events if e.action == "rollback_lr_halved"]
        assert trips, "fault injection should trip the guard"
        expected = config.learning_rate * 0.5 ** len(trips)
        assert engine.optimizer.lr == pytest.approx(expected)
        assert trips[-1].lr_after == pytest.approx(expected)


class TestCheckpointMetadataProtocol:
    def test_callback_metadata_lands_in_snapshot(self, world, model, tmp_path):
        from repro.reliability.checkpoint import CheckpointManager
        from repro.training.callbacks import CheckpointCallback

        train, test = world

        class TagContributor(Callback):
            def checkpoint_metadata(self, ctx):
                return {"experiment_tag": "callbacks-lane"}

        TrainingEngine(model, make_config(epochs=1)).fit(
            train,
            validation=test,
            callbacks=[
                ValidationCallback(),
                CheckpointCallback(tmp_path),
                TagContributor(),
            ],
        )
        manager = CheckpointManager(tmp_path, keep=1)
        snapshot = manager.load(manager.latest())
        assert snapshot.metadata["experiment_tag"] == "callbacks-lane"
        assert snapshot.metadata["model_name"] == "dcmt"


class TestDriftReferenceCallback:
    def test_reference_captured_on_fit_end(self, world, model):
        train, _ = world
        callback = DriftReferenceCallback(sample=256, bins=8, seed=5)
        TrainingEngine(model, make_config()).fit(train, callbacks=[callback])
        reference = callback.reference
        assert reference is not None
        assert set(reference.dense) == set(train.dense)
        assert len(reference.propensity.counts) == 8

    def test_reference_persisted_and_loadable(self, world, model, tmp_path):
        from repro.reliability.drift import DriftReference

        train, _ = world
        path = tmp_path / "drift_reference.json"
        callback = DriftReferenceCallback(sample=256, path=path)
        TrainingEngine(model, make_config()).fit(train, callbacks=[callback])
        assert path.exists()
        loaded = DriftReference.load(path)
        np.testing.assert_allclose(
            loaded.propensity.counts, callback.reference.propensity.counts
        )

    def test_checkpoint_metadata_points_at_reference(self, world, model, tmp_path):
        from repro.reliability.checkpoint import CheckpointManager
        from repro.training.callbacks import CheckpointCallback

        train, test = world
        path = tmp_path / "drift_reference.json"
        TrainingEngine(model, make_config(epochs=1)).fit(
            train,
            validation=test,
            callbacks=[
                ValidationCallback(),
                CheckpointCallback(tmp_path),
                DriftReferenceCallback(sample=128, path=path),
            ],
        )
        manager = CheckpointManager(tmp_path, keep=1)
        snapshot = manager.load(manager.latest())
        assert snapshot.metadata["drift_reference_path"] == str(path)

    def test_no_metadata_without_a_path(self, world, model):
        callback = DriftReferenceCallback(sample=64)
        assert callback.checkpoint_metadata(None) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftReferenceCallback(sample=0)
        with pytest.raises(ValueError):
            DriftReferenceCallback(bins=1)

    def test_reference_feeds_a_serving_sentinel(self, world, model):
        """End to end: train, freeze reference, watch live traffic."""
        from repro.reliability.drift import DriftSentinel, DriftThresholds

        train, _ = world
        callback = DriftReferenceCallback(sample=512, seed=0)
        TrainingEngine(model, make_config()).fit(train, callbacks=[callback])
        sentinel = DriftSentinel(
            callback.reference, DriftThresholds(min_samples=100)
        )
        preds = model.predict(train.subset(np.arange(400)).full_batch())
        sentinel.observe(o_hat=preds.ctr, cvr=preds.cvr)
        assert sentinel.status() == "ok"  # in-distribution traffic
        sentinel.observe(o_hat=np.full(400, 0.999))
        assert sentinel.statuses()["propensity"] == "trip"
