"""Chaos drills against the supervised trainer pool.

The acceptance story of the fault-tolerant trainer, told twice:

* **Supervised**: 4 venues (the parent and 3 forked workers), one
  worker SIGKILLed mid-epoch on a seeded schedule.  Training completes
  by re-sharding across the 3 live venues,
  the run is reproducible bit for bit (transcript *and* final
  parameters), and the finished model's quality matches the no-fault
  run to within normal inter-run variation.
* **Unsupervised strawman**: the same workers, the same schedule, no
  heartbeats/deadlines/re-dispatch -- the pool dies on the first kill
  and deadlocks on the first hang (surfaced by the test-only watchdog
  so CI does not actually hang).
"""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.data.stream import as_source
from repro.models import ModelConfig, build_model
from repro.reliability import TrainerFaultSpec, WorkerPoolError
from repro.reliability.faults import WORKER_HANG, WORKER_KILL, WorkerFault
from repro.training import TrainConfig
from repro.training.parallel import ShardedTrainingEngine, TrainerChaosDrill
from tests.training.unsupervised_pool import UnsupervisedWorkerPool

pytestmark = [pytest.mark.parallel, pytest.mark.robustness]

MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
CONFIG = TrainConfig(
    epochs=2,
    batch_size=256,
    learning_rate=0.01,
    seed=7,
    num_workers=4,
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


@pytest.fixture(scope="module")
def factory(world):
    train, _ = world

    def make():
        return build_model("dcmt", train.schema, MODEL_CONFIG)

    return make


def params_of(model):
    return [p.data.copy() for p in model.parameters()]


class TestSupervisedDrill:
    def test_kill_one_of_four_mid_epoch(self, world, factory):
        """The acceptance drill: SIGKILL 1/4 workers, finish anyway."""
        train, _ = world
        drill = TrainerChaosDrill(
            factory, train, CONFIG, spec=TrainerFaultSpec(n_kills=1), seed=3
        )
        report = drill.run()

        kills = [f for f in report.fault_schedule if f.kind == WORKER_KILL]
        assert len(kills) == 1
        n_steps = CONFIG.epochs * as_source(train).n_batches_per_epoch(
            CONFIG.batch_size, CONFIG.drop_last
        )
        assert 0 < kills[0].start < n_steps  # mid-run, not at the edges

        assert report.history.n_epochs_run == CONFIG.epochs
        assert report.n_workers_end == 3
        assert report.stats.workers_lost == 1
        assert report.stats.resharded == 1
        assert not report.fell_back
        assert any("worker_lost" in line for line in report.transcript)
        assert any("step_resharded shards=3" in line for line in report.transcript)

    def test_same_seed_runs_are_bit_identical(self, world, factory):
        train, _ = world
        spec = TrainerFaultSpec(n_kills=1)
        first = TrainerChaosDrill(
            factory, train, CONFIG, spec=spec, seed=3
        ).run()
        second = TrainerChaosDrill(
            factory, train, CONFIG, spec=spec, seed=3
        ).run()

        assert first.fault_schedule == second.fault_schedule
        assert first.transcript == second.transcript
        assert first.history.epoch_losses == second.history.epoch_losses
        for a, b in zip(params_of(first.model), params_of(second.model)):
            assert np.array_equal(a, b)

    def test_same_seed_two_venue_drills_are_bit_identical(self, world, factory):
        """Two venues: the parent and one forked worker, which the drill
        kills; the parent finishes the run alone, the same way twice."""
        train, _ = world
        config = CONFIG.with_overrides(num_workers=2)
        spec = TrainerFaultSpec(n_kills=1)
        first = TrainerChaosDrill(factory, train, config, spec=spec, seed=3).run()
        second = TrainerChaosDrill(factory, train, config, spec=spec, seed=3).run()

        assert [f.worker for f in first.fault_schedule] == [0]
        assert first.n_workers_end == 1 and first.stats.workers_lost == 1
        assert any("step_resharded shards=1" in line for line in first.transcript)
        assert first.transcript == second.transcript
        assert first.history.epoch_losses == second.history.epoch_losses
        for a, b in zip(params_of(first.model), params_of(second.model)):
            assert np.array_equal(a, b)

    def test_degraded_run_quality_matches_no_fault_run(self, world, factory):
        train, _ = world
        report = TrainerChaosDrill(
            factory, train, CONFIG, spec=TrainerFaultSpec(n_kills=1), seed=3
        ).run()

        clean = factory()
        clean_history = ShardedTrainingEngine(clean, CONFIG).fit(train)

        # Degradation changes shard geometry (float fold order), not the
        # optimisation: final mean loss within inter-seed noise.
        assert report.history.epoch_losses[-1] == pytest.approx(
            clean_history.epoch_losses[-1], rel=0.02
        )


class TestUnsupervisedStrawman:
    def _run_pool(self, pool, world, max_steps=None):
        train, _ = world
        source = as_source(train)
        rng = np.random.default_rng(CONFIG.seed)
        step = 0
        for epoch in range(CONFIG.epochs):
            for i, batch in enumerate(
                source.iter_batches(
                    CONFIG.batch_size,
                    rng=rng,
                    shuffle=True,
                    drop_last=False,
                )
            ):
                pool.compute_step(batch, epoch, i)
                step += 1
                if max_steps is not None and step >= max_steps:
                    return

    def test_kill_aborts_the_unsupervised_pool(self, world, factory):
        train, _ = world
        drill = TrainerChaosDrill(
            factory, train, CONFIG, spec=TrainerFaultSpec(n_kills=1), seed=3
        )
        pool = UnsupervisedWorkerPool(
            factory(), CONFIG, fault_schedule=drill.schedule, watchdog_s=5.0
        )
        pool.start()
        try:
            with pytest.raises(WorkerPoolError, match="cannot recover|died"):
                self._run_pool(pool, world)
        finally:
            pool.stop()

    def test_hang_deadlocks_the_unsupervised_pool(self, world, factory):
        schedule = [
            WorkerFault(kind=WORKER_HANG, worker=1, start=1, duration=1000)
        ]
        pool = UnsupervisedWorkerPool(
            factory(), CONFIG, fault_schedule=schedule, watchdog_s=2.0
        )
        pool.start()
        try:
            with pytest.raises(WorkerPoolError, match="stalled"):
                self._run_pool(pool, world, max_steps=4)
        finally:
            pool.stop()

    def test_supervised_pool_survives_the_same_hang(self, world, factory):
        train, _ = world
        schedule = [
            WorkerFault(kind=WORKER_HANG, worker=1, start=1, duration=1000)
        ]
        config = CONFIG.with_overrides(
            epochs=1, worker_retries=1, worker_deadline_s=1.0,
            heartbeat_timeout_s=0.5,
        )
        model = factory()
        engine = ShardedTrainingEngine(model, config, fault_schedule=schedule)
        history = engine.fit(train)
        assert history.n_epochs_run == 1
        assert engine.supervisor.stats.workers_lost == 1
