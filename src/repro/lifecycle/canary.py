"""Canary rollout: a gated candidate earns full traffic arm by arm.

A :class:`CanaryRollout` fronts two fully independent
:class:`~repro.simulation.serving.RankingService` arms -- the serving
champion and the gated candidate -- and routes each user to exactly one
of them with the deterministic stable hash of
:mod:`repro.utils.hashing`:

* the split is a property of the user id and the salt, so a user never
  flaps between arms mid-experiment and a rerun reproduces the exact
  assignment;
* each arm keeps its own circuit breaker, drift sentinel, admission
  queue, and :class:`~repro.reliability.health.HealthMonitor`, so a
  sick candidate degrades (and sheds) only its own slice of traffic;
* :meth:`CanaryRollout.verdict` folds the candidate arm's signals into
  ``promote`` / ``demote`` / ``pending``: any breaker trip, drift-
  sentinel trip, non-HEALTHY health state, or excess degraded traffic
  demotes immediately, and only ``min_requests`` of clean serving
  promote.

The rollout itself never touches the registry; the
:class:`~repro.lifecycle.manager.ModelLifecycleManager` reads the
verdict and performs the (atomic, reversible) registry transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.reliability.health import HEALTHY
from repro.simulation.serving import RankingService
from repro.utils.hashing import stable_fraction
from repro.utils.logging import get_logger, log_event

logger = get_logger("lifecycle.canary")

CHAMPION_ARM = "champion"
CANDIDATE_ARM = "candidate"

PENDING = "pending"
PROMOTE = "promote"
DEMOTE = "demote"

#: Breaker openings tolerated on the candidate arm (0: any trip
#: demotes).
MAX_BREAKER_TRIPS = 0


@dataclass(frozen=True)
class CanaryPolicy:
    """How much traffic the candidate gets and what demotes it."""

    #: Share of users hashed onto the candidate arm.
    traffic_fraction: float = 0.1
    #: Candidate-arm requests required before a promote verdict.
    min_requests: int = 50
    #: Demote when more than this fraction of candidate-arm requests
    #: was served by a fallback path instead of the candidate itself.
    max_degraded_fraction: float = 0.1
    #: Salt for the stable user hash (vary to re-randomise the split).
    salt: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.traffic_fraction < 1.0:
            raise ValueError(
                f"traffic_fraction must be in (0, 1), got {self.traffic_fraction}"
            )
        if self.min_requests < 1:
            raise ValueError(
                f"min_requests must be >= 1, got {self.min_requests}"
            )
        if not 0.0 <= self.max_degraded_fraction <= 1.0:
            raise ValueError(
                "max_degraded_fraction must be in [0, 1], got "
                f"{self.max_degraded_fraction}"
            )


class CanaryRollout:
    """Routes traffic across the champion and candidate arms."""

    def __init__(
        self,
        champion: RankingService,
        candidate: RankingService,
        candidate_version: str,
        policy: Optional[CanaryPolicy] = None,
    ) -> None:
        self.arms: Dict[str, RankingService] = {
            CHAMPION_ARM: champion,
            CANDIDATE_ARM: candidate,
        }
        self.candidate_version = candidate_version
        self.policy = policy or CanaryPolicy()
        self.requests: Dict[str, int] = {CHAMPION_ARM: 0, CANDIDATE_ARM: 0}
        self.shed: Dict[str, int] = {CHAMPION_ARM: 0, CANDIDATE_ARM: 0}
        self._concluded: Optional[str] = None
        self._reason = ""

    # ------------------------------------------------------------------
    def route(self, user: int) -> str:
        """Deterministic arm for one user (stable across runs)."""
        if self._concluded == DEMOTE:
            return CHAMPION_ARM
        if (
            stable_fraction(user, self.policy.salt)
            < self.policy.traffic_fraction
        ):
            return CANDIDATE_ARM
        return CHAMPION_ARM

    def serve_page(
        self,
        user: int,
        candidates: np.ndarray,
        rng: np.random.Generator,
        deadline_s: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Serve through the user's arm; interface-compatible with
        :meth:`RankingService.serve_page` (including
        :class:`~repro.reliability.errors.RequestShedError`)."""
        arm = self.route(user)
        self.requests[arm] += 1
        try:
            return self.arms[arm].serve_page(
                user, candidates, rng, deadline_s=deadline_s
            )
        except Exception:
            self.shed[arm] += 1
            raise

    # ------------------------------------------------------------------
    def arm_health(self) -> Dict[str, Dict]:
        """Per-arm structured health (the canary dashboard)."""
        report = {}
        for name, service in self.arms.items():
            snap = service.health_snapshot()
            snap["routed_requests"] = self.requests[name]
            snap["routed_failures"] = self.shed[name]
            report[name] = snap
        return report

    def verdict(self) -> Tuple[str, str]:
        """``(promote|demote|pending, reason)`` from candidate signals."""
        if self._concluded is not None:
            return self._concluded, self._reason
        policy = self.policy
        candidate = self.arms[CANDIDATE_ARM]
        breaker_trips = candidate.breaker.times_opened
        if breaker_trips > MAX_BREAKER_TRIPS:
            return DEMOTE, (
                f"candidate breaker opened {breaker_trips}x "
                f"(allowed {MAX_BREAKER_TRIPS})"
            )
        if candidate.sentinel is not None and candidate.sentinel.tripped:
            tripped = [
                name
                for name, status in candidate.sentinel.statuses().items()
                if status == "trip"
            ]
            return DEMOTE, f"candidate drift sentinel tripped: {', '.join(tripped)}"
        health = candidate.health.state
        if health != HEALTHY:
            return DEMOTE, (
                f"candidate health {health}: "
                f"{candidate.health.snapshot()['last_reason']}"
            )
        stats = candidate.stats
        if (
            stats.requests > 0
            and stats.degraded_fraction > policy.max_degraded_fraction
        ):
            return DEMOTE, (
                f"candidate served {stats.degraded_fraction:.1%} of traffic "
                f"from fallbacks (allowed {policy.max_degraded_fraction:.0%})"
            )
        if self.requests[CANDIDATE_ARM] >= policy.min_requests:
            return PROMOTE, (
                f"clean after {self.requests[CANDIDATE_ARM]} candidate requests"
            )
        return PENDING, (
            f"{self.requests[CANDIDATE_ARM]}/{policy.min_requests} "
            "candidate requests observed"
        )

    def conclude(self) -> Tuple[str, str]:
        """Freeze the verdict; a demoted canary routes everything to the
        champion from here on (an undecided canary demotes -- never
        promote on insufficient evidence)."""
        if self._concluded is None:
            verdict, reason = self.verdict()
            if verdict == PENDING:
                verdict = DEMOTE
                reason = f"insufficient canary evidence ({reason})"
            self._concluded = verdict
            self._reason = reason
            log_event(
                logger,
                "canary_concluded",
                version=self.candidate_version,
                verdict=verdict,
                reason=reason,
            )
        return self._concluded, self._reason


class FleetCanaryRollout(CanaryRollout):
    """A canary whose candidate is a real replica of a serving fleet.

    Instead of hash-splitting between two standalone services, the
    candidate is attached to a
    :class:`~repro.simulation.fleet.ServingFleet` via
    :meth:`~repro.simulation.fleet.ServingFleet.attach_canary` and the
    champion arm is the fleet's replica pool itself.  Every request --
    champion or canary slice -- goes through :meth:`fleet.serve_page`,
    so the canary exercises the exact production path: fleet admission
    and degradation, power-of-two routing, hedged retries, and the
    deterministic transcript.  A refusing canary replica hedges onto
    champion replicas rather than shedding its users, and its breaker /
    sentinel / health signals still drive :meth:`verdict` unchanged.

    :meth:`conclude` freezes the verdict and detaches the canary from
    the fleet, returning the whole slice to the champion pool.
    """

    def __init__(
        self,
        fleet,
        candidate: RankingService,
        candidate_version: str,
        policy: Optional[CanaryPolicy] = None,
    ) -> None:
        if fleet.canary is None or fleet.canary.service is not candidate:
            raise ValueError(
                "candidate must already be attached to the fleet "
                "(ServingFleet.attach_canary)"
            )
        super().__init__(fleet, candidate, candidate_version, policy=policy)
        self.fleet = fleet

    def route(self, user: int) -> str:
        """Mirror the fleet's own canary hash split (stable per user)."""
        if self._concluded == DEMOTE:
            return CHAMPION_ARM
        if self.fleet.routes_to_canary(user):
            return CANDIDATE_ARM
        return CHAMPION_ARM

    def serve_page(
        self,
        user: int,
        candidates: np.ndarray,
        rng: np.random.Generator,
        deadline_s: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Serve through the fleet; both arms share its routing path."""
        arm = self.route(user)
        self.requests[arm] += 1
        try:
            return self.fleet.serve_page(
                user, candidates, rng, deadline_s=deadline_s
            )
        except Exception:
            self.shed[arm] += 1
            raise

    def conclude(self) -> Tuple[str, str]:
        verdict, reason = super().conclude()
        self.fleet.detach_canary()
        return verdict, reason
