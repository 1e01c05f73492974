"""Golden parity: the engine reproduces the pre-engine trainer bit-exactly.

``tests/training/data/engine_golden.json`` was captured from the
monolithic trainer *before* it was decomposed into ``TrainingEngine`` +
callbacks.  These tests replay the exact same runs through the engine
with the pre-engine callback order and demand identical epoch losses,
validation AUCs, guard events, and final parameters (SHA-256 over every
weight array), both with the reliability stack fully armed and fully
disabled, plus a bit-exact kill/resume leg.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.plan import PlanRunner
from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.optim import Adam
from repro.reliability import FaultInjector, FaultSpec, LossGuardConfig
from repro.training import TrainConfig, TrainingEngine, create_engine
from repro.training.callbacks import ValidationCallback
from tests.fit_callbacks import reliability_stack

GOLDEN_PATH = Path(__file__).parent / "data" / "engine_golden.json"

# Must match the capture script's setup exactly.
MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
TRAIN_CONFIG = TrainConfig(epochs=3, batch_size=256, learning_rate=0.01, seed=7)


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def world():
    train, test, _ = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=2000, n_test=300
    )
    return train, test


def param_digest(model):
    h = hashlib.sha256()
    state = model.state_dict()
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def norm_events(events):
    """NaN-tolerant event comparison (NaN != NaN under ==)."""
    return [
        {
            k: (None if isinstance(v, float) and math.isnan(v) else v)
            for k, v in e.items()
        }
        for e in events
    ]


def full_reliability(tmp_path):
    return reliability_stack(
        TRAIN_CONFIG,
        checkpoint_dir=str(tmp_path),
        checkpoint_every_n_batches=2,
        guard=LossGuardConfig(),
        fault_injector=FaultInjector(
            FaultSpec(nan_feature_rate=0.2, nan_fraction=0.5), seed=3
        ),
    )


def count_step_calls(monkeypatch):
    """Count backward sweeps and Adam updates during a fit.

    ``backward`` counts every replayed ``PlanRunner.backward`` plus
    every ``Tensor.backward`` (the trace step and eager fallbacks);
    ``optimizer.step`` counts ``Adam.step``.  These are the events the
    golden's ``op_calls`` were captured from.
    """
    calls = {"backward": 0, "optimizer.step": 0}
    runner_backward = PlanRunner.backward
    tensor_backward = Tensor.backward
    adam_step = Adam.step

    def counted_runner_backward(self, loss):
        if self._mode == "replay":
            calls["backward"] += 1
        return runner_backward(self, loss)

    def counted_tensor_backward(self, *args, **kwargs):
        calls["backward"] += 1
        return tensor_backward(self, *args, **kwargs)

    def counted_adam_step(self):
        calls["optimizer.step"] += 1
        return adam_step(self)

    monkeypatch.setattr(PlanRunner, "backward", counted_runner_backward)
    monkeypatch.setattr(Tensor, "backward", counted_tensor_backward)
    monkeypatch.setattr(Adam, "step", counted_adam_step)
    return calls


def assert_matches(golden_leg, history, model):
    assert history.epoch_losses == golden_leg["epoch_losses"]
    assert history.validation_cvr_auc == golden_leg["validation_cvr_auc"]
    got = norm_events([e.to_dict() for e in history.events])
    assert got == norm_events(golden_leg["events"])
    assert param_digest(model) == golden_leg["param_digest"]


class TestGoldenParity:
    def test_plain_run_via_raw_engine(self, golden, world):
        """The engine plus validation alone is the pre-engine plain run."""
        train, test = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        history = TrainingEngine(model, TRAIN_CONFIG).fit(
            train,
            validation=test,
            callbacks=[ValidationCallback(TRAIN_CONFIG.early_stopping_patience)],
        )
        assert_matches(golden["plain"], history, model)

    def test_full_reliability_run(self, golden, world, tmp_path, monkeypatch):
        """Checkpoints + guard + faults + monitor armed."""
        train, test = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        calls = count_step_calls(monkeypatch)
        history = create_engine(model, TRAIN_CONFIG).fit(
            train, validation=test, callbacks=full_reliability(tmp_path)
        )
        assert_matches(golden["full"], history, model)
        assert calls == golden["full"]["op_calls"]

    def test_kill_and_resume_matches_plain_golden(self, golden, world, tmp_path):
        """A checkpointed run killed mid-epoch, then resumed, lands on
        the same parameters as the never-killed golden run."""
        train, test = world

        def reliability():
            return reliability_stack(
                TRAIN_CONFIG,
                checkpoint_dir=str(tmp_path),
                checkpoint_every_n_batches=2,
            )

        class Killed(RuntimeError):
            pass

        doomed = build_model("dcmt", train.schema, MODEL_CONFIG)
        engine = create_engine(doomed, TRAIN_CONFIG)
        real_step, calls = engine.optimizer.step, [0]

        def dying_step():
            calls[0] += 1
            if calls[0] > 11:
                raise Killed
            real_step()

        engine.optimizer.step = dying_step
        with pytest.raises(Killed):
            engine.fit(train, validation=test, callbacks=reliability())
        assert list(Path(tmp_path).glob("*.ckpt"))

        resumed = build_model(
            "dcmt", train.schema, MODEL_CONFIG.with_overrides(seed=99)
        )
        history = create_engine(resumed, TRAIN_CONFIG).fit(
            train, validation=test, resume_from=tmp_path, callbacks=reliability()
        )
        assert history.epoch_losses == golden["plain"]["epoch_losses"]
        assert history.validation_cvr_auc == golden["plain"]["validation_cvr_auc"]
        assert param_digest(resumed) == golden["plain"]["param_digest"]
