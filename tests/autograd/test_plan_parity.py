"""Bit-exact parity: compiled execution plans vs the eager engine.

``TrainConfig.compile_plan`` must be invisible in every trained bit:
same epoch losses, same final parameters (SHA-256 over every weight
array), across DCMT and the baseline estimators, with dropout active,
and through a checkpoint kill/resume that lands mid-plan.  These are pinned alongside the
engine-golden suite: any plan kernel that drifts by one ULP fails here.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.reliability import ReliabilityConfig
from repro.training import Trainer, TrainConfig, TrainingEngine

pytestmark = pytest.mark.plan

MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
TRAIN_CONFIG = TrainConfig(epochs=3, batch_size=256, learning_rate=0.01, seed=7)


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


def run(train, name, model_config=MODEL_CONFIG, **overrides):
    config = TRAIN_CONFIG.with_overrides(**overrides)
    model = build_model(name, train.schema, model_config)
    engine = TrainingEngine(model, config)
    history = engine.fit(train)
    return history, model, engine


class TestCompiledParity:
    @pytest.mark.parametrize(
        "name", ["dcmt", "dcmt_cf", "esmm", "escm2_ipw", "escm2_dr"]
    )
    def test_models_bit_exact(self, world, name):
        train, _ = world
        eager_hist, eager_model, _ = run(train, name, compile_plan=False)
        plan_hist, plan_model, engine = run(train, name, compile_plan=True)
        assert plan_hist.epoch_losses == eager_hist.epoch_losses
        assert param_digest(plan_model) == param_digest(eager_model)
        stats = engine.plan_runner.stats
        assert stats.traces == 1, "the tape must be compiled exactly once"
        assert stats.replays > 0
        assert stats.disabled_reason is None

    def test_dropout_bit_exact(self, world):
        """Stochastic masks regenerate identically: replay re-executes the
        model's Python, so module RNGs advance exactly as in eager mode."""
        train, _ = world
        config = MODEL_CONFIG.with_overrides(dropout=0.25)
        eager_hist, eager_model, _ = run(
            train, "esmm", model_config=config, compile_plan=False
        )
        plan_hist, plan_model, _ = run(
            train, "esmm", model_config=config, compile_plan=True
        )
        assert plan_hist.epoch_losses == eager_hist.epoch_losses
        assert param_digest(plan_model) == param_digest(eager_model)

    def test_plan_exposes_dense_param_grads(self, world):
        """After a replayed backward the optimizer sees ``p.grad`` exactly
        as eager would -- global-norm clipping runs on the same arrays."""
        train, _ = world
        _, model, engine = run(train, "dcmt", compile_plan=True, epochs=1)
        assert engine.plan_runner.stats.replays > 0
        grads = [p.grad for p in model.parameters()]
        assert any(g is not None for g in grads)

    def test_arena_reuses_buffers(self, world):
        train, _ = world
        _, _, engine = run(train, "dcmt", compile_plan=True, epochs=1)
        stats = engine.plan_runner.arena_stats
        assert stats["arena"]["hits"] > 0
        assert stats["arena"]["bytes_reused"] > 0
        assert stats["fused_pairs"] > 0
        assert stats["grad_bytes_per_step"] > 0
        assert stats["bytes_peak"] == stats["arena"]["bytes_allocated"]


class TestCompiledKillResume:
    def test_kill_and_resume_mid_plan(self, world, tmp_path):
        """A compiled run killed mid-epoch resumes bit-exactly.

        The restore rebinds parameter arrays, so the stale plan must be
        detected (``params`` signature miss), re-traced, and still land
        on the identical parameters as an uninterrupted eager run.
        """
        train, test = world
        eager_hist, eager_model, _ = run(train, "dcmt", compile_plan=False)
        config = TRAIN_CONFIG.with_overrides(compile_plan=True)
        reliability = ReliabilityConfig(
            checkpoint_dir=str(tmp_path), checkpoint_every_n_batches=2
        )

        class Killed(RuntimeError):
            pass

        doomed = build_model("dcmt", train.schema, MODEL_CONFIG)
        trainer = Trainer(doomed, config, reliability=reliability)
        real_step, calls = trainer.optimizer.step, [0]

        def dying_step():
            calls[0] += 1
            if calls[0] > 11:
                raise Killed
            real_step()

        trainer.optimizer.step = dying_step
        with pytest.raises(Killed):
            trainer.fit(train, validation=test)
        assert list(Path(tmp_path).glob("*.ckpt"))

        resumed = build_model(
            "dcmt", train.schema, MODEL_CONFIG.with_overrides(seed=99)
        )
        history = Trainer(resumed, config, reliability=reliability).fit(
            train, validation=test, resume_from=tmp_path
        )
        assert history.epoch_losses == eager_hist.epoch_losses
        assert param_digest(resumed) == param_digest(eager_model)
