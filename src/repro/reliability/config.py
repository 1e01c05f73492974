"""Reliability policies for the serving layer.

* :class:`ServingPolicy` -- handed to ``RankingService``; bounds the
  retry loop and parameterises the circuit breaker guarding the
  primary scoring path.
* :class:`FleetPolicy` -- handed to ``ServingFleet``; routing, hedging
  and fleet-level shedding.
* :class:`AdmissionPolicy` -- the bounded admission queue in front of
  ``RankingService``.

Training-side fault tolerance has no config object: checkpointing, the
loss guard and fault injection are callbacks
passed to ``fit`` (see :mod:`repro.training.callbacks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ServingPolicy:
    """Degraded-mode behaviour of :class:`RankingService`."""

    #: Retries of the primary scorer after its first failure, taken at
    #: once (no backoff sleep).
    max_retries: int = 2
    #: Consecutive primary failures that open the circuit breaker.
    breaker_failure_threshold: int = 5
    #: Seconds the breaker stays open before a half-open probe.
    breaker_recovery_time: float = 30.0
    #: Default per-request deadline in seconds (None: no deadline).
    #: Once the budget is spent, remaining primary retries are skipped
    #: and the request rides the fallback chain immediately.
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.breaker_failure_threshold < 1:
            raise ValueError(
                "breaker_failure_threshold must be >= 1, got "
                f"{self.breaker_failure_threshold}"
            )
        if self.breaker_recovery_time < 0:
            raise ValueError(
                "breaker_recovery_time must be >= 0, got "
                f"{self.breaker_recovery_time}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0 or None, got {self.deadline_s}"
            )


@dataclass(frozen=True)
class FleetPolicy:
    """Routing and hedging behaviour of a :class:`ServingFleet`.

    The fleet routes with power-of-two-choices on replica queue depth
    (skipping SHEDDING / breaker-open replicas), hedges a failed or
    degraded request once against a *different* replica, and widens
    shedding at the fleet level when replica quorum is lost -- all
    parameterised here.
    """

    #: Hedge attempts after the primary replica fails or serves a
    #: model-free page (each against a replica not yet tried).
    hedge_retries: int = 1
    #: Skip hedging when the deadline has less than this many seconds
    #: left -- a hedge that cannot finish is pure queue pressure.
    hedge_min_remaining_s: float = 0.0
    #: While the fleet is DEGRADED (quorum lost), shed every Nth
    #: request at the fleet door before routing, protecting the
    #: surviving replicas before total failure.
    degraded_shed_stride: int = 4
    #: While the fleet is CRITICAL (no replica available), admit only
    #: every Nth request -- the inverse pattern: most traffic sheds,
    #: and the thin admitted slice rides the popularity fallback.
    critical_shed_stride: int = 2
    #: Available-replica fraction below which the fleet is DEGRADED.
    degraded_quorum: float = 0.75
    #: Consecutive clean evaluations before the fleet steps down.
    recovery_grace: int = 3
    #: Default per-request deadline in seconds (None: no deadline);
    #: propagated into each replica attempt as its remaining budget.
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.hedge_retries < 0:
            raise ValueError(
                f"hedge_retries must be >= 0, got {self.hedge_retries}"
            )
        if self.hedge_min_remaining_s < 0:
            raise ValueError(
                "hedge_min_remaining_s must be >= 0, got "
                f"{self.hedge_min_remaining_s}"
            )
        if self.degraded_shed_stride < 2:
            raise ValueError(
                "degraded_shed_stride must be >= 2 (1 would shed all "
                f"traffic), got {self.degraded_shed_stride}"
            )
        if self.critical_shed_stride < 1:
            raise ValueError(
                "critical_shed_stride must be >= 1, got "
                f"{self.critical_shed_stride}"
            )
        if not 0.0 < self.degraded_quorum <= 1.0:
            raise ValueError(
                f"degraded_quorum must be in (0, 1], got {self.degraded_quorum}"
            )
        if self.recovery_grace < 1:
            raise ValueError(
                f"recovery_grace must be >= 1, got {self.recovery_grace}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0 or None, got {self.deadline_s}"
            )


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounded admission queue in front of :class:`RankingService`.

    The queue is a depth counter standing in for the request queue of a
    real server: every in-flight request holds one slot, a full queue
    sheds arrivals outright, and while the health state machine reports
    SHEDDING only every ``shed_stride``-th request is admitted (a
    deterministic load-shedding pattern that still lets circuit-breaker
    probes through, so the service can recover).
    """

    max_queue_depth: int = 64
    shed_stride: int = 2

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.shed_stride < 1:
            raise ValueError(f"shed_stride must be >= 1, got {self.shed_stride}")
