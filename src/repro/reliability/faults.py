"""Deterministic fault injection for training batches and fleets.

:class:`FaultInjector` corrupts :class:`~repro.data.dataset.Batch`
objects in the ways production pipelines actually fail: NaN-poisoned
dense features (upstream join bugs), dropped rows (log truncation),
zero-click batches (traffic segmentation gone wrong), and flipped
conversion labels (attribution delays).  Corruption is keyed by
``(seed, epoch, batch_index)`` through ``SeedSequence``, so a given run
corrupts exactly the same batches in exactly the same way every time --
chaos you can put in a regression test.

All mutators return *new* batches (inputs are never modified) and
preserve the dataset invariants: conversions and actions stay zero
outside the click space.

The second half of the module is the *fleet* fault vocabulary:
:class:`ReplicaFault` events (kill, slowdown, NaN predictions) placed
on a request-step timeline, and :func:`build_fleet_fault_schedule`,
which draws a schedule from a :class:`FleetFaultSpec` through the same
``SeedSequence`` discipline.  The schedule is pure data -- the
:class:`~repro.simulation.fleet.FleetChaosDrill` harness applies it to
a live :class:`~repro.simulation.fleet.ServingFleet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.data.dataset import Batch

#: Fleet fault kinds (the vocabulary of :class:`ReplicaFault`).
REPLICA_KILL = "kill"
REPLICA_SLOWDOWN = "slowdown"
REPLICA_NAN = "nan_predictions"
_REPLICA_FAULT_KINDS = (REPLICA_KILL, REPLICA_SLOWDOWN, REPLICA_NAN)

#: Training worker-pool fault kinds (the vocabulary of :class:`WorkerFault`).
WORKER_KILL = "worker_kill"
WORKER_HANG = "worker_hang"
WORKER_SLOW = "worker_slow"
_WORKER_FAULT_KINDS = (WORKER_KILL, WORKER_HANG, WORKER_SLOW)


@dataclass(frozen=True)
class FaultSpec:
    """Per-batch fault probabilities and intensities."""

    #: Probability a batch gets NaN-poisoned dense features.
    nan_feature_rate: float = 0.0
    #: Fraction of rows poisoned when the NaN fault fires.
    nan_fraction: float = 0.25
    #: Probability a batch loses rows.
    drop_row_rate: float = 0.0
    #: Fraction of rows dropped when the drop fault fires.
    drop_fraction: float = 0.25
    #: Probability a batch has all clicks (and conversions) zeroed.
    zero_click_rate: float = 0.0
    #: Probability a batch gets conversion labels flipped in O.
    label_flip_rate: float = 0.0
    #: Fraction of clicked rows flipped when the flip fault fires.
    flip_fraction: float = 0.25

    def __post_init__(self) -> None:
        for name in (
            "nan_feature_rate",
            "nan_fraction",
            "drop_row_rate",
            "drop_fraction",
            "zero_click_rate",
            "label_flip_rate",
            "flip_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class FaultRecord:
    """One applied fault, for test assertions and run forensics."""

    epoch: int
    batch: int
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)


def _clone(batch: Batch) -> Batch:
    return Batch(
        sparse={k: v.copy() for k, v in batch.sparse.items()},
        dense={k: v.copy() for k, v in batch.dense.items()},
        clicks=batch.clicks.copy(),
        conversions=batch.conversions.copy(),
        actions=None if batch.actions is None else batch.actions.copy(),
    )


class FaultInjector:
    """Seeded batch corruptor with a log of every applied fault."""

    def __init__(self, spec: FaultSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self.log: List[FaultRecord] = []

    # -- individual mutators (deterministic given the rng) -------------
    @staticmethod
    def nan_features(
        batch: Batch, fraction: float, rng: np.random.Generator
    ) -> Batch:
        """Poison a row subset of every dense feature with NaN."""
        out = _clone(batch)
        n = out.size
        k = max(1, int(round(fraction * n)))
        rows = rng.choice(n, size=min(k, n), replace=False)
        for key in out.dense:
            column = out.dense[key].astype(float, copy=True)
            column[rows] = np.nan
            out.dense[key] = column
        return out

    @staticmethod
    def drop_rows(
        batch: Batch, fraction: float, rng: np.random.Generator
    ) -> Batch:
        """Drop a row subset (keeps at least one row)."""
        n = batch.size
        k = min(max(1, int(round(fraction * n))), n - 1) if n > 1 else 0
        dropped = set(rng.choice(n, size=k, replace=False).tolist())
        keep = np.array([i for i in range(n) if i not in dropped], dtype=np.int64)
        return Batch(
            sparse={k_: v[keep] for k_, v in batch.sparse.items()},
            dense={k_: v[keep] for k_, v in batch.dense.items()},
            clicks=batch.clicks[keep],
            conversions=batch.conversions[keep],
            actions=None if batch.actions is None else batch.actions[keep],
        )

    @staticmethod
    def zero_clicks(batch: Batch) -> Batch:
        """Zero every click -- and, to keep the invariant, conversions."""
        out = _clone(batch)
        out.clicks[:] = 0
        out.conversions[:] = 0
        if out.actions is not None:
            out.actions[:] = 0
        return out

    @staticmethod
    def flip_labels(
        batch: Batch, fraction: float, rng: np.random.Generator
    ) -> Batch:
        """Flip conversion labels on a subset of *clicked* rows."""
        out = _clone(batch)
        clicked = np.flatnonzero(out.clicks == 1)
        if len(clicked) == 0:
            return out
        k = max(1, int(round(fraction * len(clicked))))
        rows = rng.choice(clicked, size=min(k, len(clicked)), replace=False)
        out.conversions[rows] = 1 - out.conversions[rows]
        return out

    # -- batch-position-keyed chaos ------------------------------------
    def _rng_for(self, epoch: int, index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, epoch, index])
        )

    def corrupt(self, batch: Batch, epoch: int = 0, index: int = 0) -> Batch:
        """Apply the spec's faults to one batch, deterministically.

        The decision and the corruption both come from an rng derived
        from ``(seed, epoch, index)``, so resumed runs see identical
        faults without replaying earlier batches.
        """
        spec = self.spec
        rng = self._rng_for(epoch, index)
        out = batch
        if spec.drop_row_rate and rng.random() < spec.drop_row_rate:
            out = self.drop_rows(out, spec.drop_fraction, rng)
            self.log.append(FaultRecord(epoch, index, "drop_rows"))
        if spec.zero_click_rate and rng.random() < spec.zero_click_rate:
            out = self.zero_clicks(out)
            self.log.append(FaultRecord(epoch, index, "zero_clicks"))
        if spec.label_flip_rate and rng.random() < spec.label_flip_rate:
            out = self.flip_labels(out, spec.flip_fraction, rng)
            self.log.append(FaultRecord(epoch, index, "flip_labels"))
        if spec.nan_feature_rate and rng.random() < spec.nan_feature_rate:
            out = self.nan_features(out, spec.nan_fraction, rng)
            self.log.append(FaultRecord(epoch, index, "nan_features"))
        return out


# ----------------------------------------------------------------------
# Fleet faults: replica-kill / slowdown / NaN-prediction events on a
# seeded request-step timeline.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicaFault:
    """One fault window against one replica of a serving fleet."""

    #: ``kill`` (replica drops out of the fleet), ``slowdown`` (every
    #: scoring call costs extra injected-clock latency), or
    #: ``nan_predictions`` (the replica's primary scorer returns NaN).
    kind: str
    #: Index of the afflicted replica.
    replica: int
    #: Request step (0-based) at which the fault begins.
    start: int
    #: Fault length in request steps; ``None`` means permanent (the
    #: default for ``kill`` -- a dead replica stays dead unless the
    #: drill revives it explicitly).
    duration: Optional[int] = None
    #: Extra seconds per scoring call while a ``slowdown`` is active.
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _REPLICA_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {_REPLICA_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.replica < 0:
            raise ValueError(f"replica must be >= 0, got {self.replica}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration is not None and self.duration < 1:
            raise ValueError(
                f"duration must be >= 1 or None, got {self.duration}"
            )
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.kind == REPLICA_SLOWDOWN and self.latency_s == 0:
            raise ValueError("a slowdown fault needs latency_s > 0")

    def active(self, step: int) -> bool:
        """Is the fault in force at request ``step``?"""
        if step < self.start:
            return False
        return self.duration is None or step < self.start + self.duration


@dataclass(frozen=True)
class FleetFaultSpec:
    """How many faults of each kind a seeded schedule should contain."""

    #: Permanent replica kills (at most one per replica).
    n_kills: int = 1
    #: Slowdown windows.
    n_slowdowns: int = 0
    #: Injected-clock latency per scoring call during a slowdown.
    slowdown_latency_s: float = 0.05
    #: Length of each slowdown window, in request steps.
    slowdown_duration: int = 20
    #: NaN-prediction bursts.
    n_nan_bursts: int = 0
    #: Length of each NaN burst, in request steps.
    nan_duration: int = 10

    def __post_init__(self) -> None:
        for name in ("n_kills", "n_slowdowns", "n_nan_bursts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.slowdown_latency_s <= 0:
            raise ValueError(
                f"slowdown_latency_s must be > 0, got {self.slowdown_latency_s}"
            )
        if self.slowdown_duration < 1 or self.nan_duration < 1:
            raise ValueError("fault durations must be >= 1 step")


def build_fleet_fault_schedule(
    spec: FleetFaultSpec,
    n_replicas: int,
    n_steps: int,
    seed: int = 0,
) -> List[ReplicaFault]:
    """Draw a deterministic fault schedule for one drill run.

    Placement comes from ``SeedSequence([seed])`` exactly like
    :class:`FaultInjector`, so the same ``(spec, n_replicas, n_steps,
    seed)`` always yields the same schedule.  Kills land on distinct
    replicas (a drill that kills the same replica twice proves
    nothing), and every fault starts inside the middle 80% of the run
    so the transcript shows both a clean lead-in and the aftermath.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if spec.n_kills > n_replicas:
        raise ValueError(
            f"cannot kill {spec.n_kills} of {n_replicas} replicas"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_replicas, n_steps]))
    lo, hi = max(1, n_steps // 10), max(2, (9 * n_steps) // 10)
    faults: List[ReplicaFault] = []
    kill_targets = rng.choice(n_replicas, size=spec.n_kills, replace=False)
    for target in kill_targets:
        faults.append(
            ReplicaFault(
                kind=REPLICA_KILL,
                replica=int(target),
                start=int(rng.integers(lo, hi)),
            )
        )
    for _ in range(spec.n_slowdowns):
        faults.append(
            ReplicaFault(
                kind=REPLICA_SLOWDOWN,
                replica=int(rng.integers(0, n_replicas)),
                start=int(rng.integers(lo, hi)),
                duration=spec.slowdown_duration,
                latency_s=spec.slowdown_latency_s,
            )
        )
    for _ in range(spec.n_nan_bursts):
        faults.append(
            ReplicaFault(
                kind=REPLICA_NAN,
                replica=int(rng.integers(0, n_replicas)),
                start=int(rng.integers(lo, hi)),
                duration=spec.nan_duration,
            )
        )
    faults.sort(key=lambda f: (f.start, f.replica, f.kind))
    return faults


# ----------------------------------------------------------------------
# Training worker faults: SIGKILL / hang / slow-worker events on a
# seeded dispatch-step timeline, applied by the TrainerChaosDrill.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerFault:
    """One fault against one worker of a supervised training pool."""

    #: ``worker_kill`` (the supervisor SIGKILLs the worker process at
    #: ``start``), ``worker_hang`` (the worker sleeps indefinitely
    #: instead of computing its shard), or ``worker_slow`` (each shard
    #: costs ``latency_s`` extra wall-clock while active).
    kind: str
    #: Stable slot index of the afflicted worker (0-based, assigned at
    #: pool spawn; slots survive worker loss so schedules stay
    #: addressable).
    worker: int
    #: Global dispatch step (0-based optimizer-step attempts) at which
    #: the fault begins.
    start: int
    #: Fault length in dispatch steps; ``None`` means permanent (the
    #: default for kills and hangs -- a hung worker does not un-hang).
    duration: Optional[int] = None
    #: Extra seconds per shard while a ``worker_slow`` fault is active.
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _WORKER_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {_WORKER_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration is not None and self.duration < 1:
            raise ValueError(
                f"duration must be >= 1 or None, got {self.duration}"
            )
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.kind == WORKER_SLOW and self.latency_s == 0:
            raise ValueError("a worker_slow fault needs latency_s > 0")

    def active(self, step: int) -> bool:
        """Is the fault in force at dispatch ``step``?"""
        if step < self.start:
            return False
        return self.duration is None or step < self.start + self.duration


@dataclass(frozen=True)
class TrainerFaultSpec:
    """How many worker faults of each kind a seeded schedule contains."""

    #: Permanent SIGKILLs (at most one per worker).
    n_kills: int = 1
    #: Permanent hangs (distinct workers, never on a killed worker --
    #: a fault that can never be observed proves nothing).
    n_hangs: int = 0
    #: Slow-worker windows.
    n_slow: int = 0
    #: Extra seconds per shard during a slow window.
    slow_latency_s: float = 0.05
    #: Length of each slow window, in dispatch steps.
    slow_duration: int = 5

    def __post_init__(self) -> None:
        for name in ("n_kills", "n_hangs", "n_slow"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.slow_latency_s <= 0:
            raise ValueError(
                f"slow_latency_s must be > 0, got {self.slow_latency_s}"
            )
        if self.slow_duration < 1:
            raise ValueError(
                f"slow_duration must be >= 1, got {self.slow_duration}"
            )


def build_trainer_fault_schedule(
    spec: TrainerFaultSpec,
    n_workers: int,
    n_steps: int,
    seed: int = 0,
) -> List[WorkerFault]:
    """Draw a deterministic worker-fault schedule for one drill run.

    Mirrors :func:`build_fleet_fault_schedule`: placement comes from
    ``SeedSequence([seed, n_workers, n_steps])``, kills and hangs land
    on distinct workers (and never stack -- a killed worker cannot also
    hang), and every fault starts inside the middle 80% of the run so
    the transcript shows a clean lead-in and the aftermath.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if spec.n_kills + spec.n_hangs > n_workers:
        raise ValueError(
            f"cannot place {spec.n_kills} kills + {spec.n_hangs} hangs "
            f"on {n_workers} workers"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, n_workers, n_steps])
    )
    lo, hi = max(1, n_steps // 10), max(2, (9 * n_steps) // 10)
    faults: List[WorkerFault] = []
    targets = rng.choice(
        n_workers, size=spec.n_kills + spec.n_hangs, replace=False
    )
    for target in targets[: spec.n_kills]:
        faults.append(
            WorkerFault(
                kind=WORKER_KILL,
                worker=int(target),
                start=int(rng.integers(lo, hi)),
            )
        )
    for target in targets[spec.n_kills :]:
        faults.append(
            WorkerFault(
                kind=WORKER_HANG,
                worker=int(target),
                start=int(rng.integers(lo, hi)),
            )
        )
    for _ in range(spec.n_slow):
        faults.append(
            WorkerFault(
                kind=WORKER_SLOW,
                worker=int(rng.integers(0, n_workers)),
                start=int(rng.integers(lo, hi)),
                duration=spec.slow_duration,
                latency_s=spec.slow_latency_s,
            )
        )
    faults.sort(key=lambda f: (f.start, f.worker, f.kind))
    return faults
