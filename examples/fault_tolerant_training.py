"""Fault-tolerant training and serving, end to end.

A production-shaped drill in three acts::

    python examples/fault_tolerant_training.py

1. **Kill and resume.**  A checkpointing training run is killed
   mid-epoch (simulated preemption).  A fresh engine resumes from the
   newest valid snapshot and finishes; the result is bit-identical to
   a run that was never killed.
2. **Divergence guard.**  The same model is trained on a batch stream
   poisoned with NaN features.  The loss guard trips, rolls back to
   the last good step, halves the learning rate, and training still
   ends with finite losses and finite weights.

Acts 1 and 2 assemble their reliability features as
:class:`~repro.training.callbacks.Callback` objects passed to a bare
:class:`~repro.training.TrainingEngine`'s ``fit(callbacks=...)``.
3. **Chaos serving.**  The trained model serves pages while its
   primary scorer fails 30% of the time.  The circuit breaker opens
   and the fallback chain (shared CTR model, then popularity prior)
   keeps every page full.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.reliability import (
    ChaosScoring,
    FaultInjector,
    FaultSpec,
    LossGuardConfig,
    ServingPolicy,
)
from repro.simulation.serving import RankingService
from repro.training import TrainConfig, TrainingEngine, fit_model
from repro.training.callbacks import (
    CheckpointCallback,
    FaultInjectionCallback,
    LossGuardCallback,
    ValidationCallback,
)
from repro.utils.logging import enable_console_logging

MODEL_CONFIG = ModelConfig(embedding_dim=8, hidden_sizes=(16,), seed=0)
TRAIN_CONFIG = TrainConfig(epochs=4, batch_size=512, learning_rate=0.005, seed=7)


class Preempted(Exception):
    """Stands in for SIGKILL / spot-instance reclamation."""


def checkpointing_callbacks(checkpoint_dir: Path):
    """Validation first, checkpoint last: the snapshot then carries the
    fresh early-stopping state (ordering is load-bearing, see
    ``repro.training.callbacks.base``)."""
    return [
        ValidationCallback(),
        CheckpointCallback(checkpoint_dir, every_n_batches=3),
    ]


def act_1_kill_and_resume(train, test, checkpoint_dir: Path):
    print("\n=== Act 1: kill mid-epoch, resume bit-exactly ===")

    # Reference: the run that never dies (no checkpointing at all).
    reference = build_model("dcmt", train.schema, MODEL_CONFIG)
    ref_history = fit_model(reference, train, TRAIN_CONFIG, validation=test)

    # The doomed run: a bare engine with hand-assembled callbacks,
    # preempted after 9 optimizer steps.
    doomed = build_model("dcmt", train.schema, MODEL_CONFIG)
    engine = TrainingEngine(doomed, TRAIN_CONFIG)
    real_step, calls = engine.optimizer.step, [0]

    def preemptible_step():
        calls[0] += 1
        if calls[0] > 9:
            raise Preempted
        real_step()

    engine.optimizer.step = preemptible_step
    try:
        engine.fit(
            train,
            validation=test,
            callbacks=checkpointing_callbacks(checkpoint_dir),
        )
    except Preempted:
        print(f"  killed after {calls[0] - 1} steps; "
              f"{len(list(checkpoint_dir.glob('*.ckpt')))} snapshots on disk")

    # A fresh process: new model object, new engine, resume from disk.
    resumed = build_model("dcmt", train.schema, MODEL_CONFIG.with_overrides(seed=42))
    history = TrainingEngine(resumed, TRAIN_CONFIG).fit(
        train,
        validation=test,
        resume_from=checkpoint_dir,
        callbacks=checkpointing_callbacks(checkpoint_dir),
    )

    ref_state = reference.state_dict()
    identical = all(
        np.array_equal(ref_state[k], v) for k, v in resumed.state_dict().items()
    )
    print(f"  resumed epoch losses: {[round(x, 5) for x in history.epoch_losses]}")
    print(f"  bit-identical to uninterrupted run: {identical}")
    assert identical and history.epoch_losses == ref_history.epoch_losses
    return resumed


def act_2_divergence_guard(train):
    print("\n=== Act 2: NaN batches trip the loss guard ===")
    model = build_model("dcmt", train.schema, MODEL_CONFIG)
    # Order matters: fault injection corrupts the batch *before* the
    # guard classifies its loss.
    engine = TrainingEngine(model, TRAIN_CONFIG)
    history = engine.fit(
        train,
        callbacks=[
            FaultInjectionCallback(
                FaultInjector(
                    FaultSpec(nan_feature_rate=0.15, nan_fraction=0.5), seed=13
                )
            ),
            LossGuardCallback(LossGuardConfig()),
        ],
    )
    trips = [e for e in history.events if e.action == "rollback_lr_halved"]
    print(f"  guard trips: {len(trips)} "
          f"(reasons: {sorted({e.reason for e in trips})})")
    print(f"  learning rate {TRAIN_CONFIG.learning_rate} -> {engine.optimizer.lr:g}")
    print(f"  epoch losses all finite: "
          f"{all(np.isfinite(x) for x in history.epoch_losses)}")
    assert trips and engine.optimizer.lr < TRAIN_CONFIG.learning_rate
    assert all(np.all(np.isfinite(p.data)) for p in model.parameters())


def act_3_chaos_serving(train, scenario, model):
    print("\n=== Act 3: serve through 30% scorer failures ===")
    ctr_provider = build_model(
        "esmm", train.schema, MODEL_CONFIG.with_overrides(seed=1)
    )
    service = RankingService(
        model,
        scenario,
        page_size=10,
        ctr_provider=ctr_provider,
        policy=ServingPolicy(max_retries=1, breaker_failure_threshold=3),
    )
    rng = np.random.default_rng(0)
    with ChaosScoring(service, failure_rate=0.3, seed=99) as chaos:
        short_pages = 0
        for request in range(200):
            page, _ = service.serve_page(request % 40, np.arange(30), rng)
            short_pages += len(page) != 10
    stats = service.stats
    print(f"  injected failures: {chaos.failures_injected}/{chaos.calls} scorer calls")
    print(f"  pages served per source: {stats.by_source}")
    print(f"  breaker opened {service.breaker.times_opened}x, "
          f"short-circuited {stats.breaker_short_circuits} requests, "
          f"final state: {service.breaker.state!r}")
    print(f"  short pages out of 200 requests: {short_pages}")
    assert short_pages == 0 and stats.requests == 200


def main() -> None:
    enable_console_logging()
    train, test, scenario = load_scenario(
        "ae_es", n_users=60, n_items=80, n_train=6000, n_test=1500
    )
    with tempfile.TemporaryDirectory() as tmp:
        model = act_1_kill_and_resume(train, test, Path(tmp) / "ckpts")
    act_2_divergence_guard(train)
    act_3_chaos_serving(train, scenario, model)
    print("\nAll three drills passed: a page was always served, and no "
          "crash or NaN cost us the run.")


if __name__ == "__main__":
    main()
