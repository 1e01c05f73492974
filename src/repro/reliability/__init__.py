"""Fault tolerance for training and serving.

The north star is a production CVR system, and DCMT's inverse-propensity
losses are exactly the kind that blow up there: IPW weights ``1/o_hat``
diverge as propensities collapse, one NaN batch poisons a run, and one
flaky scorer can take down a results page.  This package makes those
failures survivable:

* :mod:`~repro.reliability.checkpoint` -- checksummed atomic snapshots
  of the full training state (parameters, Adam moments, RNG streams,
  history) with rotation and corruption-tolerant recovery;
* :mod:`~repro.reliability.guards` -- NaN/spike loss detection;
* :mod:`~repro.reliability.faults` / :mod:`~repro.reliability.chaos` --
  deterministic fault injection for batches and the scoring path, used
  by tests to prove the guards fire;
* :mod:`~repro.reliability.circuit` -- the circuit breaker behind
  :class:`~repro.simulation.serving.RankingService`'s fallback chain;
* :mod:`~repro.reliability.drift` -- PSI/KS sentinels comparing
  serving-time feature/propensity/CVR distributions against a frozen
  training reference;
* :mod:`~repro.reliability.health` -- the HEALTHY -> DEGRADED ->
  SHEDDING state machine driven by the breaker, the sentinels, and the
  admission-queue depth together;
* :mod:`~repro.reliability.errors` -- the shared exception taxonomy.
"""

from repro.reliability.chaos import ChaosScoring
from repro.reliability.checkpoint import (
    CheckpointManager,
    TrainingSnapshot,
    load_snapshot,
    save_snapshot,
    verify_snapshot,
)
from repro.reliability.circuit import CircuitBreaker
from repro.reliability.config import (
    AdmissionPolicy,
    FleetPolicy,
    ServingPolicy,
)
from repro.reliability.drift import (
    CalibrationMonitor,
    CalibrationThresholds,
    DriftMonitor,
    DriftReference,
    DriftSentinel,
    DriftThresholds,
    ReferenceDistribution,
    ks_statistic,
    population_stability_index,
)
from repro.reliability.errors import (
    CheckpointCorruptError,
    DivergenceError,
    PromotionBlockedError,
    RegistryCorruptError,
    ReliabilityError,
    ReplicaUnavailableError,
    RequestShedError,
    ScoringUnavailableError,
    WorkerPoolError,
)
from repro.reliability.timeouts import (
    Deadline,
    cap_to_deadline,
    exponential_backoff,
    jittered_backoff,
)
from repro.reliability.health import (
    CRITICAL,
    DEGRADED,
    HEALTHY,
    SHEDDING,
    FleetHealthMonitor,
    HealthMonitor,
    HealthPolicy,
    HealthTransition,
)
from repro.reliability.faults import (
    FaultInjector,
    FaultRecord,
    FaultSpec,
    FleetFaultSpec,
    ReplicaFault,
    TrainerFaultSpec,
    WorkerFault,
    build_fleet_fault_schedule,
    build_trainer_fault_schedule,
)
from repro.reliability.guards import (
    GuardEvent,
    LossGuard,
    LossGuardConfig,
)

__all__ = [
    "AdmissionPolicy",
    "CalibrationMonitor",
    "CalibrationThresholds",
    "ChaosScoring",
    "DriftMonitor",
    "DriftReference",
    "DriftSentinel",
    "DriftThresholds",
    "ReferenceDistribution",
    "ks_statistic",
    "population_stability_index",
    "RequestShedError",
    "ReplicaUnavailableError",
    "HEALTHY",
    "DEGRADED",
    "SHEDDING",
    "CRITICAL",
    "FleetHealthMonitor",
    "HealthMonitor",
    "HealthPolicy",
    "HealthTransition",
    "CheckpointManager",
    "TrainingSnapshot",
    "load_snapshot",
    "save_snapshot",
    "verify_snapshot",
    "CircuitBreaker",
    "FleetPolicy",
    "ServingPolicy",
    "ReliabilityError",
    "CheckpointCorruptError",
    "DivergenceError",
    "PromotionBlockedError",
    "RegistryCorruptError",
    "ScoringUnavailableError",
    "WorkerPoolError",
    "Deadline",
    "cap_to_deadline",
    "exponential_backoff",
    "jittered_backoff",
    "FaultInjector",
    "FaultRecord",
    "FaultSpec",
    "FleetFaultSpec",
    "ReplicaFault",
    "TrainerFaultSpec",
    "WorkerFault",
    "build_fleet_fault_schedule",
    "build_trainer_fault_schedule",
    "GuardEvent",
    "LossGuard",
    "LossGuardConfig",
]
