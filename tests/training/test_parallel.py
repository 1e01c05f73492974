"""The supervised data-parallel engine: exactness, supervision, resume.

The headline invariant: a ``num_workers = K`` pool run is **bit-exact**
with a ``num_shards = K`` single-process run -- same shard split, same
per-shard reseed, same deterministic left-fold reduction, so the only
difference is which process executed the arithmetic.  On top of that,
the supervision ladder (deadline miss -> re-dispatch -> worker lost ->
re-shard -> quorum -> fallback/abort) is pinned with seeded fault
schedules whose transcripts must be reproducible bit for bit.
"""

import hashlib
import multiprocessing as mp
import pickle
import time

import numpy as np
import pytest

from repro.data import load_scenario
from repro.data.stream import as_source, shard_batch, shard_sizes
from repro.models import ModelConfig, build_model
from repro.nn.module import Parameter
from repro.optim import ParamPlane
from repro.reliability import (
    TrainerFaultSpec,
    WorkerFault,
    WorkerPoolError,
    build_trainer_fault_schedule,
)
from repro.reliability.checkpoint import CheckpointManager
from repro.reliability.faults import WORKER_HANG, WORKER_KILL, WORKER_SLOW
from repro.training import TrainConfig, TrainingEngine, create_engine
from repro.training.callbacks import Callback, CheckpointCallback
from repro.training.parallel import (
    ShardedTrainingEngine,
    ShardFold,
    WorkerSupervisor,
    _bind_readonly,
    reduce_shard_losses,
)

pytestmark = pytest.mark.parallel

MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
#: Short deadlines so supervision tests resolve fast; generous enough
#: that a healthy worker on a loaded CI box never trips them by accident
#: in the no-fault exactness tests (those use the config defaults).
DRILL_KNOBS = dict(
    worker_deadline_s=5.0,
    heartbeat_timeout_s=1.0,
    heartbeat_interval_s=0.1,
    worker_backoff_s=0.01,
)


@pytest.fixture(scope="module")
def world():
    train, test, _ = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=1000, n_test=200
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


def make_config(**overrides):
    base = dict(epochs=2, batch_size=256, learning_rate=0.01, seed=7)
    base.update(overrides)
    return TrainConfig(**base)


# ----------------------------------------------------------------------
class TestShardSplit:
    def test_shard_sizes_cover_all_rows(self):
        assert shard_sizes(10, 4) == [3, 3, 2, 2]
        assert shard_sizes(4, 4) == [1, 1, 1, 1]
        assert shard_sizes(2, 4) == [1, 1]  # empty shards dropped
        assert shard_sizes(7, 1) == [7]

    def test_shard_sizes_rejects_nonsense(self):
        with pytest.raises(ValueError):
            shard_sizes(0, 2)
        with pytest.raises(ValueError):
            shard_sizes(10, 0)

    def test_shard_batch_is_contiguous_partition(self, world):
        train, _ = world
        batch = as_source(train).sample_batch(100)
        shards = shard_batch(batch, 3)
        assert [s.size for s in shards] == shard_sizes(batch.size, 3)
        assert np.array_equal(
            np.concatenate([s.clicks for s in shards]), batch.clicks
        )
        for name in batch.sparse:
            assert np.array_equal(
                np.concatenate([s.sparse[name] for s in shards]),
                batch.sparse[name],
            )

    def test_reduce_losses_is_row_weighted(self):
        assert reduce_shard_losses([2.0, 4.0], [1, 3]) == pytest.approx(3.5)
        assert reduce_shard_losses([5.0], [17]) == 5.0

    def test_reduce_grads_singleton_passthrough(self):
        plane = ParamPlane([Parameter(np.zeros((2, 3)))])
        slot = np.zeros(plane.size)
        slot[:6] = np.arange(6.0) / 3.0
        fold = ShardFold(plane)
        fold.begin([4])
        fold.accept(0, slot, [])
        assert fold.finish() == []
        # K=1 copies the gradient unscaled: not even a multiply by 1.0.
        assert plane.grad.tobytes() == slot.tobytes()
        plane.grad[:] = 7.0
        fold.begin([4])
        fold.accept(0, plane.grad, [0])
        assert fold.finish() == [0]
        assert np.all(plane.grad == 7.0)

    def test_fold_matches_per_parameter_left_fold(self):
        """Whole-buffer fold == the per-parameter, shard-ordered left
        fold (skipping shards without a gradient), bit for bit, with
        results accepted out of shard order."""
        rng = np.random.default_rng(5)
        shapes = [(4, 3), (5,), (2, 2)]
        plane = ParamPlane([Parameter(np.zeros(s)) for s in shapes])
        sizes = [3, 5, 2]
        grads = [[rng.normal(size=s) for s in shapes] for _ in sizes]
        missing = [[1], [], [1, 2]]
        for k, i in ((0, 1), (2, 1), (2, 2)):
            grads[k][i] = None
        slots = []
        for shard in grads:
            slot = np.zeros(plane.size)
            for view, g in zip(plane.views(slot), shard):
                if g is None:
                    view[...] = np.nan  # stale bytes must not leak in
                else:
                    view[...] = g
            slots.append(slot)
        fold = ShardFold(plane)
        fold.begin(sizes)
        for k in (2, 0, 1):
            fold.accept(k, slots[k], missing[k])
        assert fold.finish() == []

        total = float(sum(sizes))
        for i, view in enumerate(plane.grad_views):
            acc = None
            for k, shard in enumerate(grads):
                if shard[i] is None:
                    continue
                scaled = shard[i] * (sizes[k] / total)
                if acc is None:
                    acc = scaled
                else:
                    acc += scaled
            assert view.tobytes() == acc.tobytes()


# ----------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_workers=0),
            dict(num_shards=0),
            dict(worker_deadline_s=0.0),
            dict(heartbeat_interval_s=0.0),
            dict(heartbeat_timeout_s=0.0),
            dict(heartbeat_timeout_s=30.0),  # >= worker_deadline_s
            dict(heartbeat_interval_s=5.0),  # >= heartbeat_timeout_s
            dict(worker_retries=-1),
            dict(worker_backoff_s=-0.1),
            dict(worker_backoff_jitter=-0.5),
            dict(min_workers=0),
            dict(num_workers=2, min_workers=3),
        ],
    )
    def test_rejects_invalid_parallel_knobs(self, overrides):
        with pytest.raises(ValueError):
            make_config(**overrides)

    def test_effective_shards(self):
        assert make_config().effective_shards == 1
        assert make_config(num_workers=4).effective_shards == 4
        assert make_config(num_shards=3).effective_shards == 3
        assert make_config(num_workers=4, num_shards=2).effective_shards == 2

    def test_factory_routes_on_parallel_knobs(self, world):
        train, _ = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        assert isinstance(
            create_engine(model, make_config()), TrainingEngine
        ) and not isinstance(
            create_engine(model, make_config()), ShardedTrainingEngine
        )
        assert isinstance(
            create_engine(model, make_config(num_workers=2)),
            ShardedTrainingEngine,
        )
        assert isinstance(
            create_engine(model, make_config(num_shards=2)),
            ShardedTrainingEngine,
        )


# ----------------------------------------------------------------------
class TestBitExactness:
    def test_one_worker_pool_matches_plain_engine(self, world):
        train, _ = world
        plain = build_model("dcmt", train.schema, MODEL_CONFIG)
        plain_history = TrainingEngine(plain, make_config()).fit(train)

        pooled = build_model("dcmt", train.schema, MODEL_CONFIG)
        pooled_history = create_engine(
            pooled, make_config(num_workers=1)
        ).fit(train)

        assert pooled_history.epoch_losses == plain_history.epoch_losses
        assert param_digest(pooled) == param_digest(plain)

    @pytest.mark.parametrize("name", ["dcmt", "esmm"])
    def test_pool_matches_serial_sharded_at_fixed_shard_count(
        self, world, name
    ):
        train, _ = world
        serial = build_model(name, train.schema, MODEL_CONFIG)
        serial_history = create_engine(
            serial, make_config(num_shards=2)
        ).fit(train)

        pooled = build_model(name, train.schema, MODEL_CONFIG)
        pooled_history = create_engine(
            pooled, make_config(num_workers=2)
        ).fit(train)

        assert pooled_history.epoch_losses == serial_history.epoch_losses
        assert param_digest(pooled) == param_digest(serial)


class _RecordGrads(Callback):
    """Records each parameter's gradient after the first two backwards."""

    def __init__(self):
        self.steps = []

    def on_backward_end(self, ctx):
        if len(self.steps) < 2:
            self.steps.append(
                [(p.grad, p.data.shape) for p in ctx.model.parameters()]
            )


class TestDenseGrads:
    @pytest.mark.parametrize(
        "overrides",
        [dict(), dict(num_shards=2), dict(num_workers=2)],
        ids=["default", "serial_sharded", "pool"],
    )
    def test_every_grad_is_a_dense_array(self, world, overrides):
        """Embedding tables included, the optimizer sees one plain
        array of the parameter's shape per parameter (each run's second
        step is a plan replay)."""
        train, _ = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        recorder = _RecordGrads()
        create_engine(model, make_config(epochs=1, **overrides)).fit(
            train, callbacks=[recorder]
        )
        assert len(recorder.steps) == 2
        for grads in recorder.steps:
            for grad, shape in grads:
                assert type(grad) is np.ndarray
                assert grad.shape == shape


# ----------------------------------------------------------------------
class _RebindAtEpochOne(Callback):
    """Restores the fit-start weights at epoch 1, then rebinds them."""

    def on_fit_start(self, ctx):
        self.initial = ctx.model.state_dict()

    def on_epoch_start(self, ctx):
        if ctx.epoch != 1:
            return
        ctx.model.load_state_dict(self.initial)
        for param in ctx.model.parameters():
            param.data = param.data * 0.5


class _PauseEachBatch(Callback):
    """Holds the parent before every step after the first.

    Each pause stays under the heartbeat timeout, so a worker busy
    with an old task is never declared lost for a beat the parent did
    not read; together they outlast a slow fault.
    """

    def __init__(self, seconds):
        self.seconds = seconds

    def on_batch_start(self, ctx):
        if ctx.batch_index > 0:
            time.sleep(self.seconds)


def _report_worker_view(conn, model, plane):
    """Forked child: bind like a pool worker, wait, report what it sees."""
    params = model.parameters()
    _bind_readonly(plane)
    conn.recv()
    try:
        params[0].data[...] = 0.0
        wrote = True
    except ValueError:
        wrote = False
    conn.send(
        (
            [bool(p.data.flags.writeable) for p in params],
            [
                bool(np.shares_memory(p.data, v))
                for p, v in zip(params, plane.data_views)
            ],
            wrote,
            param_digest(model),
        )
    )


class TestSharedParameters:
    def test_worker_reads_readonly_views_of_the_published_mapping(
        self, world
    ):
        """The mapping is the parent's parameter plane: a rebind the
        parent adopts after the fork is what the worker reads."""
        train, _ = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        plane = ParamPlane(model.parameters())
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        child = ctx.Process(
            target=_report_worker_view, args=(child_conn, model, plane)
        )
        child.start()
        try:
            # Rebind after the fork: only the mapping can carry it over.
            for param in model.parameters():
                param.data = param.data + 1.0
            plane.adopt()
            parent_conn.send("go")
            assert parent_conn.poll(30)
            writeable, shares, wrote, digest = parent_conn.recv()
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        assert child.exitcode == 0
        assert not any(writeable)
        assert all(shares)
        assert not wrote
        assert digest == param_digest(model)

    def test_publish_rejects_a_reshaped_parameter(self, world):
        """A step adopts rebound arrays into the plane before it
        dispatches; a reshaped one cannot be, and nothing is sent."""
        train, _ = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        config = make_config(num_workers=1)
        supervisor = WorkerSupervisor(
            model, config, ParamPlane(model.parameters())
        )
        supervisor.start()
        try:
            first = model.parameters()[0]
            first.data = np.zeros(
                (first.data.shape[0] + 1,) + first.data.shape[1:]
            )
            batch = as_source(train).sample_batch(64)
            with pytest.raises(WorkerPoolError, match="changed shape"):
                supervisor.compute_step(batch, 0, 0)
            assert supervisor.stats.dispatches == 0
        finally:
            supervisor.stop()

    # Four workers outnumber the cores of a small CI box, so workers
    # race each other and the parent's publish for CPU time.
    @pytest.mark.parametrize("k", [2, 4])
    def test_rebinding_parameters_mid_fit_keeps_pool_exact(self, world, k):
        train, _ = world
        serial = build_model("dcmt", train.schema, MODEL_CONFIG)
        serial_history = create_engine(serial, make_config(num_shards=k)).fit(
            train, callbacks=[_RebindAtEpochOne()]
        )
        pooled = build_model("dcmt", train.schema, MODEL_CONFIG)
        pooled_history = create_engine(
            pooled, make_config(num_workers=k)
        ).fit(train, callbacks=[_RebindAtEpochOne()])
        untouched = build_model("dcmt", train.schema, MODEL_CONFIG)
        create_engine(untouched, make_config(num_shards=k)).fit(train)

        assert pooled_history.epoch_losses == serial_history.epoch_losses
        assert param_digest(pooled) == param_digest(serial)
        assert param_digest(pooled) != param_digest(untouched)

    @pytest.mark.parametrize("overrides", [{}, {"num_shards": 2}])
    def test_rebind_mid_fit_is_adopted_without_a_retrace_per_step(
        self, world, overrides
    ):
        """The plane copies a rebound array in before the next forward
        and points ``param.data`` back at the same view, so the plan
        keeps replaying."""
        train, _ = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        engine = create_engine(model, make_config(**overrides))
        engine.fit(train, callbacks=[_RebindAtEpochOne()])
        stats = engine.plan_runner.stats
        assert stats.retraces <= 1 and stats.traces <= 2
        plane = engine.optimizer.plane
        assert all(
            p.data is view for p, view in zip(plane.params, plane.data_views)
        )

    def test_stale_result_after_next_publish_is_dropped(self, world):
        """A straggler that wakes after the next step's publish computes
        on newer bytes; its result must be discarded, not folded in."""
        train, _ = world
        config = make_config(
            epochs=1,
            batch_size=128,
            num_workers=2,
            worker_retries=10,
            worker_deadline_s=0.8,
            heartbeat_timeout_s=0.6,
            heartbeat_interval_s=0.05,
            worker_backoff_s=0.0,
        )
        # Step 0's shard 0 misses its deadline and is redone by worker 1;
        # worker 0 wakes around step 2, after steps 1 and 2 published.
        schedule = [
            WorkerFault(
                kind=WORKER_SLOW, worker=0, start=0, duration=1, latency_s=1.2
            )
        ]
        faulted = build_model("dcmt", train.schema, MODEL_CONFIG)
        engine = ShardedTrainingEngine(
            faulted, config, fault_schedule=schedule
        )
        engine.fit(train, callbacks=[_PauseEachBatch(0.25)])
        stats = engine.supervisor.stats
        assert stats.workers_lost == 0
        assert stats.deadline_misses >= 1
        assert stats.stale_results >= 1

        serial = build_model("dcmt", train.schema, MODEL_CONFIG)
        create_engine(
            serial, make_config(epochs=1, batch_size=128, num_shards=2)
        ).fit(train)
        assert param_digest(faulted) == param_digest(serial)

    def test_bytes_per_step_below_one_parameter_list(self, world):
        train, _ = world
        # Wide enough that parameters outweigh a step's shards, as in
        # real runs; the old broadcast sent the list once per shard.
        model = build_model(
            "dcmt",
            train.schema,
            ModelConfig(embedding_dim=16, hidden_sizes=(64, 32), seed=0),
        )
        params_bytes = len(
            pickle.dumps(
                [p.data for p in model.parameters()], pickle.HIGHEST_PROTOCOL
            )
        )
        engine = create_engine(model, make_config(epochs=1, num_workers=2))
        engine.fit(train)
        supervisor = engine.supervisor
        assert supervisor.step > 0
        assert supervisor.stats.bytes_sent / supervisor.step < params_bytes
        # Gradients come back through the shared slots: a reply is a
        # task id, a loss and the indices of missing gradients.
        assert 0 < supervisor.stats.bytes_received / supervisor.step < 1024


# ----------------------------------------------------------------------
class TestCheckpointResume:
    def _fit_with_checkpoints(self, model, config, train, directory):
        engine = create_engine(model, config)
        history = engine.fit(
            train,
            callbacks=[CheckpointCallback(str(directory), every_n_batches=2)],
        )
        return engine, history

    def test_parallel_state_rides_checkpoint_metadata(self, world, tmp_path):
        train, _ = world
        config = make_config(epochs=1, num_workers=2, min_workers=2)
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        self._fit_with_checkpoints(model, config, train, tmp_path)

        manager = CheckpointManager(tmp_path, keep=3)
        snapshot = manager.load(manager.latest())
        meta = snapshot.metadata["parallel"]
        assert meta["num_workers"] == 2
        assert meta["effective_shards"] == 2
        assert meta["min_workers"] == 2
        assert meta["fell_back"] is False

    @pytest.mark.parametrize(
        "ckpt_knobs, resume_knobs",
        [
            # parallel -> parallel
            (dict(num_workers=2), dict(num_workers=2)),
            # parallel checkpoint resumed by the serial sharded engine
            (dict(num_workers=2), dict(num_shards=2)),
            # serial sharded checkpoint resumed by the pool
            (dict(num_shards=2), dict(num_workers=2)),
        ],
    )
    def test_cross_mode_resume_is_bit_exact(
        self, world, tmp_path, ckpt_knobs, resume_knobs
    ):
        train, _ = world

        reference = build_model("dcmt", train.schema, MODEL_CONFIG)
        expected = create_engine(
            reference, make_config(**ckpt_knobs)
        ).fit(train)

        class Killed(RuntimeError):
            pass

        doomed = build_model("dcmt", train.schema, MODEL_CONFIG)
        engine = create_engine(doomed, make_config(**ckpt_knobs))
        real_step, calls = engine.optimizer.step, [0]

        def dying_step():
            calls[0] += 1
            if calls[0] > 2:  # dies mid-epoch 0 (4 batches/epoch)
                raise Killed
            real_step()

        engine.optimizer.step = dying_step
        with pytest.raises(Killed):
            engine.fit(
                train,
                callbacks=[
                    CheckpointCallback(str(tmp_path), every_n_batches=1)
                ],
            )

        resumed = build_model(
            "dcmt", train.schema, MODEL_CONFIG.with_overrides(seed=99)
        )
        history = create_engine(resumed, make_config(**resume_knobs)).fit(
            train, resume_from=tmp_path
        )
        assert history.epoch_losses == expected.epoch_losses
        assert param_digest(resumed) == param_digest(reference)


# ----------------------------------------------------------------------
class TestSupervision:
    def test_worker_loss_degrades_and_completes(self, world):
        train, _ = world
        config = make_config(num_workers=3, **DRILL_KNOBS)
        schedule = [WorkerFault(kind=WORKER_KILL, worker=1, start=1)]
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        engine = ShardedTrainingEngine(model, config, fault_schedule=schedule)
        history = engine.fit(train)

        assert history.n_epochs_run == config.epochs
        assert not engine.fell_back
        reasons = [e.reason for e in history.events]
        assert "worker_lost" in reasons
        assert "step_resharded" in reasons
        assert engine.supervisor.stats.workers_lost == 1
        assert engine.supervisor.current_shards == 2
        assert any("worker_lost worker-1" in line for line in engine.transcript)

    def test_slow_worker_still_finishes_exact(self, world):
        """A slow fault under the deadline costs time, not correctness."""
        train, _ = world
        config = make_config(epochs=1, num_workers=2, **DRILL_KNOBS)
        schedule = [
            WorkerFault(
                kind=WORKER_SLOW, worker=0, start=0, duration=2,
                latency_s=0.05,
            )
        ]
        faulted = build_model("dcmt", train.schema, MODEL_CONFIG)
        engine = ShardedTrainingEngine(
            faulted, config, fault_schedule=schedule
        )
        engine.fit(train)
        assert engine.supervisor.stats.workers_lost == 0

        clean = build_model("dcmt", train.schema, MODEL_CONFIG)
        ShardedTrainingEngine(clean, config).fit(train)
        assert param_digest(faulted) == param_digest(clean)

    def test_hang_triggers_deadline_miss_then_loss(self, world):
        train, _ = world
        config = make_config(
            epochs=1,
            num_workers=2,
            worker_retries=1,
            worker_deadline_s=1.0,
            heartbeat_timeout_s=0.5,
            heartbeat_interval_s=0.1,
            worker_backoff_s=0.01,
        )
        schedule = [
            WorkerFault(kind=WORKER_HANG, worker=1, start=1, duration=1000)
        ]
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        engine = ShardedTrainingEngine(model, config, fault_schedule=schedule)
        history = engine.fit(train)

        assert history.n_epochs_run == 1
        reasons = [e.reason for e in history.events]
        assert "worker_deadline_miss" in reasons
        assert "worker_redispatch" in reasons
        assert "worker_lost" in reasons
        assert engine.supervisor.stats.deadline_misses >= 1
        assert engine.supervisor.stats.redispatches >= 1

    def test_quorum_loss_falls_back_to_single_process(self, world):
        train, _ = world
        config = make_config(
            num_workers=2, min_workers=2, **DRILL_KNOBS
        )
        schedule = [WorkerFault(kind=WORKER_KILL, worker=0, start=1)]
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        engine = ShardedTrainingEngine(model, config, fault_schedule=schedule)
        history = engine.fit(train)

        assert engine.fell_back
        assert history.n_epochs_run == config.epochs
        reasons = [e.reason for e in history.events]
        assert "worker_quorum_lost" in reasons
        assert "single_process_fallback" in reasons

    def test_quorum_loss_aborts_when_fallback_disabled(self, world):
        train, _ = world
        config = make_config(
            num_workers=2,
            min_workers=2,
            single_process_fallback=False,
            **DRILL_KNOBS,
        )
        schedule = [WorkerFault(kind=WORKER_KILL, worker=0, start=1)]
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        engine = ShardedTrainingEngine(model, config, fault_schedule=schedule)
        with pytest.raises(WorkerPoolError, match="quorum"):
            engine.fit(train)


# ----------------------------------------------------------------------
class TestTrainerFaultSchedule:
    def test_same_seed_same_schedule(self):
        spec = TrainerFaultSpec(n_kills=2, n_hangs=1, n_slow=1)
        a = build_trainer_fault_schedule(spec, n_workers=4, n_steps=40, seed=5)
        b = build_trainer_fault_schedule(spec, n_workers=4, n_steps=40, seed=5)
        assert a == b
        c = build_trainer_fault_schedule(spec, n_workers=4, n_steps=40, seed=6)
        assert a != c

    def test_faults_land_mid_run_on_distinct_workers(self):
        spec = TrainerFaultSpec(n_kills=2, n_hangs=2)
        schedule = build_trainer_fault_schedule(
            spec, n_workers=4, n_steps=100, seed=0
        )
        kills_and_hangs = [
            f for f in schedule if f.kind in (WORKER_KILL, WORKER_HANG)
        ]
        workers = [f.worker for f in kills_and_hangs]
        assert len(set(workers)) == len(workers)
        for fault in schedule:
            assert 10 <= fault.start <= 90

    def test_rejects_more_terminal_faults_than_workers(self):
        with pytest.raises(ValueError):
            build_trainer_fault_schedule(
                TrainerFaultSpec(n_kills=2, n_hangs=1),
                n_workers=2,
                n_steps=40,
            )
