"""Data-parallel training tour: a supervised pool surviving its workers.

Narrates the "losing a trainer worker mid-epoch" runbook from
``docs/reproduction_guide.md`` against live forked workers:

1. train DCMT through a 4-worker supervised pool and prove the
   headline invariant -- the pool run is **bit-exact** with a 4-shard
   single-process run (same shard split, same seeded reduction fold).
   Workers read the parameters from the optimizer's shared parameter
   plane and write gradients into shared slots, so a step's pipe
   traffic is its shards going out and a few bytes of reply per shard
   coming back, never parameters or gradients;
2. run a seeded :class:`~repro.training.parallel.TrainerChaosDrill`
   that SIGKILLs one worker mid-epoch: training completes by
   re-sharding across the survivors, the structured event trail rides
   the history, and a same-seed rerun reproduces the transcript bit
   for bit;
3. hang a worker instead, and watch the deadline/heartbeat ladder
   tell "slow" from "dead": strike, seeded-jitter backoff,
   re-dispatch, eventual loss;
4. break the quorum entirely and watch the engine degrade to
   single-process training mid-epoch rather than lose the run.

Run with::

    PYTHONPATH=src python examples/parallel_training.py
"""

import hashlib
import pickle

import numpy as np

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.reliability import TrainerFaultSpec, WorkerFault
from repro.reliability.faults import WORKER_HANG, WORKER_KILL
from repro.training import TrainConfig, create_engine
from repro.training.parallel import ShardedTrainingEngine, TrainerChaosDrill

MODEL_CONFIG = ModelConfig(embedding_dim=8, hidden_sizes=(16,), seed=0)
CONFIG = TrainConfig(
    epochs=2,
    batch_size=512,
    learning_rate=0.01,
    seed=7,
    num_workers=4,
    worker_deadline_s=5.0,
    heartbeat_timeout_s=1.0,
    heartbeat_interval_s=0.1,
    worker_backoff_s=0.01,
)


def banner(title):
    print(f"\n=== {title} " + "=" * max(8, 60 - len(title)))


def digest(model):
    h = hashlib.sha256()
    state = model.state_dict()
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        h.update(key.encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def main():
    train, _, _ = load_scenario(
        "ae_es", n_users=60, n_items=80, n_train=3000, n_test=500
    )

    def factory():
        return build_model("dcmt", train.schema, MODEL_CONFIG)

    # -- 1. the headline invariant -------------------------------------
    banner("4-worker pool vs 4-shard single-process: bit-exact")
    pooled = factory()
    pooled_engine = create_engine(pooled, CONFIG)
    pooled_history = pooled_engine.fit(train)
    serial = factory()
    serial_history = create_engine(
        serial, CONFIG.with_overrides(num_workers=None, num_shards=4)
    ).fit(train)
    print(f"pool   losses: {[round(x, 6) for x in pooled_history.epoch_losses]}")
    print(f"serial losses: {[round(x, 6) for x in serial_history.epoch_losses]}")
    print(f"pool   params: {digest(pooled)}")
    print(f"serial params: {digest(serial)}")
    assert digest(pooled) == digest(serial)
    print("bit-exact: same shard split, same seeded left-fold reduction.")
    stats, steps = pooled_engine.supervisor.stats, pooled_engine.supervisor.step
    param_bytes = len(
        pickle.dumps([p.data for p in pooled.parameters()], pickle.HIGHEST_PROTOCOL)
    )
    print(f"pipe bytes per step: {stats.bytes_sent / steps:,.0f} sent (shards), "
          f"{stats.bytes_received / steps:,.0f} received (replies); "
          f"sending the parameters with each of the "
          f"{stats.dispatches / steps:.0f} dispatches would add "
          f"{stats.dispatches / steps * param_bytes:,.0f}")

    # -- 2. the chaos drill --------------------------------------------
    banner("Chaos drill: SIGKILL 1 of 4 workers mid-epoch")
    drill = TrainerChaosDrill(
        factory, train, CONFIG, spec=TrainerFaultSpec(n_kills=1), seed=3
    )
    report = drill.run()
    for fault in report.fault_schedule:
        print(f"scheduled: {fault.kind} on worker-{fault.worker} "
              f"at step {fault.start}")
    print("transcript:")
    for line in report.transcript:
        print(f"  {line}")
    print(f"summary: {report.summary()}")
    assert report.history.n_epochs_run == CONFIG.epochs

    rerun = TrainerChaosDrill(
        factory, train, CONFIG, spec=TrainerFaultSpec(n_kills=1), seed=3
    ).run()
    print(f"same-seed rerun transcript identical: "
          f"{rerun.transcript == report.transcript}")
    print(f"same-seed rerun params identical: "
          f"{digest(rerun.model) == digest(report.model)}")

    clean = factory()
    clean_history = ShardedTrainingEngine(clean, CONFIG).fit(train)
    print(f"final loss  no-fault: {clean_history.epoch_losses[-1]:.6f}")
    print(f"final loss  drilled:  {report.history.epoch_losses[-1]:.6f}")
    print("degradation changed shard geometry, not the optimisation.")

    # -- 3. a hang, not a death ----------------------------------------
    banner("Hang fault: deadline miss -> redispatch -> loss")
    hang_config = CONFIG.with_overrides(
        epochs=1, worker_retries=1, worker_deadline_s=1.0,
        heartbeat_timeout_s=0.5,
    )
    model = factory()
    engine = ShardedTrainingEngine(
        model,
        hang_config,
        fault_schedule=[
            WorkerFault(kind=WORKER_HANG, worker=2, start=1, duration=1000)
        ],
    )
    engine.fit(train)
    for line in engine.transcript:
        print(f"  {line}")
    print("the hung worker kept heartbeating, so it was retried as a "
          "straggler before being benched and finally declared lost.")

    # -- 4. quorum loss and fallback -----------------------------------
    banner("Quorum loss: degrade to single-process, keep the run")
    quorum_config = CONFIG.with_overrides(num_workers=2, min_workers=2)
    model = factory()
    engine = ShardedTrainingEngine(
        model,
        quorum_config,
        fault_schedule=[WorkerFault(kind=WORKER_KILL, worker=0, start=1)],
    )
    history = engine.fit(train)
    for line in engine.transcript:
        print(f"  {line}")
    print(f"fell back to single-process: {engine.fell_back}; "
          f"epochs completed: {history.n_epochs_run}/{quorum_config.epochs}")
    print("\nAll four phases done: exact when healthy, degraded but alive "
          "when not, dead only by choice.")


if __name__ == "__main__":
    main()
