"""Serving health state machine: HEALTHY -> DEGRADED -> SHEDDING.

One service-level state computed from three independent signals --
the circuit breaker guarding the primary scorer, the drift sentinels,
and the admission-queue depth -- so operators (and the admission
controller itself) read a single word instead of cross-referencing
three dashboards:

* **HEALTHY** -- breaker closed, no drift trip, queue shallow;
* **DEGRADED** -- the breaker is open (traffic is riding the fallback
  chain), a drift sentinel has tripped, or the queue is filling;
* **SHEDDING** -- the queue is near capacity, or the breaker is open
  *while* drift has tripped (fallback quality is itself suspect); the
  admission controller sheds a deterministic fraction of traffic.

Escalation is immediate; de-escalation steps down one level only after
``recovery_grace`` consecutive clean evaluations, so one good request
cannot flap the service back to HEALTHY mid-incident.  A *fresh*
degradation signal during that grace period (the target severity rising
between evaluations, e.g. a breaker trip while SHEDDING is pending its
step-down) re-arms the counter instead of riding the pending step-down.
Every transition is recorded with its reason for forensics and tests,
and :meth:`HealthMonitor.snapshot` exposes the machine's full state for
per-arm dashboards (the canary controller's health view).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.reliability.config import FleetPolicy

HEALTHY = "healthy"
DEGRADED = "degraded"
SHEDDING = "shedding"
_RANK = {HEALTHY: 0, DEGRADED: 1, SHEDDING: 2}
_BY_RANK = [HEALTHY, DEGRADED, SHEDDING]

#: Fleet-level terminal state: no replica can take traffic at all.
CRITICAL = "critical"
_FLEET_RANK = {HEALTHY: 0, DEGRADED: 1, CRITICAL: 2}
_FLEET_BY_RANK = [HEALTHY, DEGRADED, CRITICAL]

#: Queue fullness (depth / max depth) that marks DEGRADED.
DEGRADE_QUEUE_FRACTION = 0.5
#: Queue fullness that forces SHEDDING.
SHED_QUEUE_FRACTION = 0.9


@dataclass(frozen=True)
class HealthPolicy:
    """How recovery is paced (queue thresholds are module constants)."""

    #: Consecutive clean evaluations before stepping down one level.
    recovery_grace: int = 3

    def __post_init__(self) -> None:
        if self.recovery_grace < 1:
            raise ValueError(
                f"recovery_grace must be >= 1, got {self.recovery_grace}"
            )


@dataclass(frozen=True)
class HealthTransition:
    """One recorded state change (evaluation index + cause)."""

    step: int
    from_state: str
    to_state: str
    reason: str


@dataclass
class HealthMonitor:
    """Evaluates the three signals into one state with hysteresis."""

    policy: HealthPolicy = field(default_factory=HealthPolicy)
    _state: str = HEALTHY
    _steps: int = 0
    _calm: int = 0
    #: Severity rank of the previous evaluation's target (re-arm logic).
    _last_target_rank: int = 0
    #: Raw signals of the most recent evaluation, for :meth:`snapshot`.
    _last_signals: Dict[str, Any] = field(default_factory=dict)
    transitions: List[HealthTransition] = field(default_factory=list)

    @property
    def state(self) -> str:
        return self._state

    def _target(
        self, breaker_open: bool, drift_status: str, queue_fraction: float
    ) -> Tuple[str, str]:
        """Severity the current signals call for, with its reason."""
        if queue_fraction >= SHED_QUEUE_FRACTION:
            return SHEDDING, f"queue at {queue_fraction:.0%} of capacity"
        if breaker_open and drift_status == "trip":
            return SHEDDING, "breaker open with drift tripped"
        reasons = []
        if breaker_open:
            reasons.append("breaker open")
        if drift_status == "trip":
            reasons.append("drift sentinel tripped")
        if queue_fraction >= DEGRADE_QUEUE_FRACTION:
            reasons.append(f"queue at {queue_fraction:.0%} of capacity")
        if reasons:
            return DEGRADED, " + ".join(reasons)
        return HEALTHY, "signals clean"

    def update(
        self,
        breaker_open: bool = False,
        drift_status: str = "ok",
        queue_fraction: float = 0.0,
    ) -> str:
        """Fold one evaluation of the signals into the state machine."""
        self._steps += 1
        target, reason = self._target(breaker_open, drift_status, queue_fraction)
        self._last_signals = {
            "breaker_open": breaker_open,
            "drift_status": drift_status,
            "queue_fraction": queue_fraction,
            "target": target,
        }
        escalating = _RANK[target] > self._last_target_rank
        self._last_target_rank = _RANK[target]
        if _RANK[target] > _RANK[self._state]:
            self._move(target, reason)
            self._calm = 0
        elif _RANK[target] < _RANK[self._state]:
            if escalating:
                # A fresh degradation (e.g. a breaker trip while the
                # SHEDDING step-down is pending) is not a clean
                # evaluation: re-arm the grace counter instead of
                # letting the stale countdown step the service down.
                self._calm = 0
            else:
                self._calm += 1
                if self._calm >= self.policy.recovery_grace:
                    step_down = _BY_RANK[_RANK[self._state] - 1]
                    self._move(
                        step_down,
                        f"recovered after {self._calm} clean evaluations",
                    )
                    self._calm = 0
        else:
            self._calm = 0
        return self._state

    def snapshot(self) -> Dict[str, Any]:
        """Structured view of the machine for dashboards and canaries."""
        return {
            "state": self._state,
            "steps": self._steps,
            "calm": self._calm,
            "n_transitions": len(self.transitions),
            "last_reason": (
                self.transitions[-1].reason if self.transitions else ""
            ),
            "signals": dict(self._last_signals),
        }

    def _move(self, to_state: str, reason: str) -> None:
        self.transitions.append(
            HealthTransition(self._steps, self._state, to_state, reason)
        )
        self._state = to_state

    def reset(self) -> None:
        """Operator override back to HEALTHY (transitions retained)."""
        if self._state != HEALTHY:
            self._move(HEALTHY, "operator reset")
        self._calm = 0


@dataclass
class FleetHealthMonitor:
    """HEALTHY -> DEGRADED -> CRITICAL from replica availability.

    The fleet analogue of :class:`HealthMonitor`: one state computed
    from how many replicas can currently take traffic (alive, breaker
    not open, not SHEDDING).  Losing quorum degrades the fleet --
    which widens shedding upstream -- and losing *every* replica is
    CRITICAL, where the fleet serves from the model-free popularity
    fallback rather than dropping pages.  Escalation is immediate;
    de-escalation steps down one level after ``recovery_grace``
    consecutive clean evaluations, with the same re-arm-on-fresh-signal
    hysteresis as the replica machine.  Its thresholds are the
    ``degraded_quorum`` and ``recovery_grace`` of the fleet's
    :class:`~repro.reliability.config.FleetPolicy`.
    """

    policy: FleetPolicy = field(default_factory=FleetPolicy)
    _state: str = HEALTHY
    _steps: int = 0
    _calm: int = 0
    _last_target_rank: int = 0
    _last_signals: Dict[str, Any] = field(default_factory=dict)
    transitions: List[HealthTransition] = field(default_factory=list)

    @property
    def state(self) -> str:
        return self._state

    def _target(self, available: int, total: int) -> Tuple[str, str]:
        if total < 1:
            raise ValueError(f"fleet must have >= 1 replica, got {total}")
        if available == 0:
            return CRITICAL, "no replica available"
        fraction = available / total
        if fraction < self.policy.degraded_quorum:
            return DEGRADED, (
                f"{available}/{total} replicas available "
                f"(quorum {self.policy.degraded_quorum:.0%})"
            )
        return HEALTHY, f"{available}/{total} replicas available"

    def update(self, available: int, total: int) -> str:
        """Fold one availability evaluation into the state machine."""
        self._steps += 1
        target, reason = self._target(available, total)
        self._last_signals = {
            "available": available,
            "total": total,
            "target": target,
        }
        escalating = _FLEET_RANK[target] > self._last_target_rank
        self._last_target_rank = _FLEET_RANK[target]
        if _FLEET_RANK[target] > _FLEET_RANK[self._state]:
            self._move(target, reason)
            self._calm = 0
        elif _FLEET_RANK[target] < _FLEET_RANK[self._state]:
            if escalating:
                self._calm = 0
            else:
                self._calm += 1
                if self._calm >= self.policy.recovery_grace:
                    step_down = _FLEET_BY_RANK[_FLEET_RANK[self._state] - 1]
                    self._move(
                        step_down,
                        f"recovered after {self._calm} clean evaluations",
                    )
                    self._calm = 0
        else:
            self._calm = 0
        return self._state

    def snapshot(self) -> Dict[str, Any]:
        """Structured view matching :meth:`HealthMonitor.snapshot`."""
        return {
            "state": self._state,
            "steps": self._steps,
            "calm": self._calm,
            "n_transitions": len(self.transitions),
            "last_reason": (
                self.transitions[-1].reason if self.transitions else ""
            ),
            "signals": dict(self._last_signals),
        }

    def _move(self, to_state: str, reason: str) -> None:
        self.transitions.append(
            HealthTransition(self._steps, self._state, to_state, reason)
        )
        self._state = to_state
