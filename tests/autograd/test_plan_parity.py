"""Bit-exact parity: compiled execution plans vs the eager engine.

Every fit replays a compiled plan, and the plan must be invisible in
every trained bit: same epoch losses, same final parameters (SHA-256
over every weight array), across every registered model, with dropout
active, and through a checkpoint kill/resume that lands mid-plan.  The
eager reference is the same engine with plan tracing patched off, so
each step takes the runner's eager path.  These are pinned alongside
the engine-golden suite: any plan kernel that drifts by one ULP fails
here.
"""

import contextlib
import gc
import hashlib
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.autograd.plan import PlanRunner
from repro.data import load_scenario
from repro.models import MODEL_REGISTRY, ModelConfig, build_model
from repro.training import TrainConfig, TrainingEngine, create_engine
from tests.fit_callbacks import reliability_stack

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


@contextlib.contextmanager
def eager_reference():
    """Patch plan tracing off: every step takes the runner's eager path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PlanRunner, "_should_trace", lambda self, batch: False)
        yield


def run_eager(train, name, **kwargs):
    with eager_reference():
        history, model, engine = run(train, name, **kwargs)
    assert engine.plan_runner.stats.traces == 0
    return history, model, engine


#: Models whose tape uses an op the plan compiler cannot lower; their
#: fits disable the plan at the trace step and train eagerly.
UNLOWERED = {"cross_stitch": "getitem", "aitm": "batched"}


class TestCompiledParity:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_models_bit_exact(self, world, name):
        train, _ = world
        eager_hist, eager_model, _ = run_eager(train, name)
        plan_hist, plan_model, engine = run(train, name)
        assert plan_hist.epoch_losses == eager_hist.epoch_losses
        assert param_digest(plan_model) == param_digest(eager_model)
        stats = engine.plan_runner.stats
        assert stats.traces == 1, "the tape must be compiled exactly once"
        if name in UNLOWERED:
            assert UNLOWERED[name] in (stats.disabled_reason or "")
            assert stats.replays == 0
        else:
            assert stats.replays > 0
            assert stats.disabled_reason is None

    @pytest.mark.parametrize(
        "overrides", [dict(), dict(num_shards=2)], ids=["default", "sharded"]
    )
    def test_default_fits_replay_a_plan(self, world, overrides):
        """No knob: a default ``TrainConfig`` fit and a serial sharded
        fit both replay compiled plans."""
        train, _ = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        config = TrainConfig(epochs=1, batch_size=256, **overrides)
        engine = create_engine(model, config)
        engine.fit(train)
        assert engine.plan_runner.stats.replays > 0

    def test_dropout_bit_exact(self, world):
        """Stochastic masks regenerate identically: replay re-executes the
        model's Python, so module RNGs advance exactly as in eager mode."""
        train, _ = world
        config = MODEL_CONFIG.with_overrides(dropout=0.25)
        eager_hist, eager_model, _ = run_eager(train, "esmm", model_config=config)
        plan_hist, plan_model, _ = run(train, "esmm", model_config=config)
        assert plan_hist.epoch_losses == eager_hist.epoch_losses
        assert param_digest(plan_model) == param_digest(eager_model)

    def test_plan_exposes_dense_param_grads(self, world):
        """After a replayed backward the optimizer sees ``p.grad`` exactly
        as eager would -- global-norm clipping runs on the same arrays."""
        train, _ = world
        _, model, engine = run(train, "dcmt", epochs=1)
        assert engine.plan_runner.stats.replays > 0
        grads = [p.grad for p in model.parameters()]
        assert any(g is not None for g in grads)

    def test_arena_reuses_buffers(self, world):
        train, _ = world
        _, _, engine = run(train, "dcmt", epochs=1)
        stats = engine.plan_runner.arena_stats
        assert stats["arena"]["hits"] > 0
        assert stats["arena"]["bytes_reused"] > 0
        assert stats["fused_pairs"] > 0
        assert stats["grad_bytes_per_step"] > 0
        assert stats["bytes_peak"] == stats["arena"]["bytes_allocated"]

    def test_arena_dies_with_its_runner(self, world):
        """Without the cyclic GC, dropping the engine after a fit frees
        every arena buffer that no ``Parameter.grad`` still holds: the
        compiled plan is reference-counted, not cycle-collected."""
        train, _ = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        engine = TrainingEngine(model, TRAIN_CONFIG.with_overrides(epochs=1))
        gc.collect()
        gc.disable()
        try:
            engine.fit(train)
            slots = list(engine.plan_runner.plan.arena._slots.values())
            held = {id(p.grad) for p in model.parameters()}
            refs = [weakref.ref(buf) for buf in slots if id(buf) not in held]
            del slots
            assert refs
            del engine
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert alive == 0, f"{alive} of {len(refs)} arena buffers outlived the fit"


class TestCompiledKillResume:
    def test_kill_and_resume_mid_plan(self, world, tmp_path):
        """A compiled run killed mid-epoch resumes bit-exactly.

        The restore rebinds parameter arrays, so the stale plan must be
        detected (``params`` signature miss), re-traced, and still land
        on the identical parameters as an uninterrupted eager run.
        """
        train, test = world
        eager_hist, eager_model, _ = run_eager(train, "dcmt")

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
        assert history.epoch_losses == eager_hist.epoch_losses
        assert param_digest(resumed) == param_digest(eager_model)
