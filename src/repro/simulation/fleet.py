"""A replicated serving fleet: N ranking replicas behind one router.

One :class:`~repro.simulation.serving.RankingService` process is a
single point of failure: one breaker trip or NaN burst takes down the
whole "site".  :class:`ServingFleet` runs N replicas -- each carrying
its own breaker / admission queue / health machine / drift stack --
behind a deterministic router, and survives replica loss, slow
replicas, and partial corruption without dropping the page:

* **Health-aware routing** -- power-of-two-choices on replica queue
  depth, drawn from the fleet's seeded RNG, skipping replicas that are
  dead, SHEDDING, or breaker-open.  A sick replica stops receiving
  traffic the moment its own machines say so.
* **Hedged retries** -- when the routed replica refuses the request or
  serves a model-free page, the fleet retries once against a
  *different* replica, at once, while the request deadline leaves
  room.  The router's seeded RNG draws a jitter value per hedge into
  the transcript, so the same seed reproduces the same retry schedule
  bit for bit.
* **Graceful degradation** -- a fleet-level HEALTHY -> DEGRADED ->
  CRITICAL machine driven by replica quorum
  (:class:`~repro.reliability.health.FleetHealthMonitor`).  Lost
  quorum widens shedding at the fleet door before total failure;
  only when *every* replica is down does the fallback chain end in
  the scenario's model-free popularity scorer.
* **Serve-from-registry** -- :meth:`ServingFleet.from_registry` loads
  each replica's parameters from a published
  :class:`~repro.lifecycle.registry.ModelRegistry` version, so
  replicas serve independent frozen copies of the champion, never a
  live training object.
* **Chaos drills** -- :class:`FleetChaosDrill` replays a seeded
  :func:`~repro.reliability.faults.build_fleet_fault_schedule`
  (replica kills, injected-clock slowdowns, NaN-prediction bursts)
  against a live fleet and produces a deterministic transcript.

Every request lands in :attr:`ServingFleet.transcript` as a
:class:`FleetEvent`, so a whole episode is a comparable value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.reliability.circuit import CircuitBreaker
from repro.reliability.config import FleetPolicy
from repro.reliability.errors import ReplicaUnavailableError, RequestShedError
from repro.reliability.faults import (
    REPLICA_KILL,
    REPLICA_NAN,
    REPLICA_SLOWDOWN,
    ReplicaFault,
)
from repro.reliability.health import (
    CRITICAL,
    DEGRADED,
    SHEDDING,
    FleetHealthMonitor,
)
from repro.simulation.serving import Deadline, RankingService
from repro.utils.hashing import stable_fraction
from repro.utils.logging import get_logger, log_event

logger = get_logger("simulation.fleet")

#: Source label for pages ranked by the fleet's own popularity
#: fallback (every replica down) rather than any replica.
FLEET_POPULARITY = "fleet_popularity"

#: Preference order when a hedge and the primary both produced a page.
_SOURCE_RANK = {"primary": 3, "ctr_provider": 2, "popularity": 1, "": 0}


@dataclass
class Replica:
    """One fleet member: a ranking service plus its liveness flag."""

    name: str
    service: RankingService
    #: Chaos switch: a dead replica is skipped by the router outright
    #: (the process is gone; not even its breaker answers).
    alive: bool = True


@dataclass(frozen=True)
class FleetEvent:
    """One routed request, for the deterministic fleet transcript."""

    request: int
    user: int
    fleet_state: str
    #: Replica the router picked first ("" when shed before routing or
    #: served straight from the fleet fallback).
    primary: str
    hedged: bool
    #: Hedge replica name ("" when no hedge fired).
    hedge: str
    #: Jitter draw u ~ U[0, 1) taken from the router's RNG per hedge
    #: (0.0 when no hedge fired) -- makes the seeded retry schedule
    #: assertable.
    hedge_jitter: float
    #: Scoring source of the final page ("" for shed requests).
    source: str
    #: Replica that produced the final page ("" for fleet fallback).
    served_by: str
    outcome: str  # "served" | "shed"

    def line(self) -> str:
        """Stable one-line rendering for drill transcripts."""
        return (
            f"[{self.request:05d}] user={self.user} state={self.fleet_state} "
            f"primary={self.primary or '-'} "
            f"hedge={self.hedge or '-'} jitter={self.hedge_jitter:.6f} "
            f"source={self.source or '-'} by={self.served_by or '-'} "
            f"outcome={self.outcome}"
        )


@dataclass
class FleetStats:
    """Fleet-level counters on top of the per-replica ones."""

    requests: int = 0
    served: int = 0
    #: Requests refused at the fleet door (lost-quorum shedding).
    fleet_shed: int = 0
    #: Replica attempts that refused the request (shed or error).
    replica_refusals: int = 0
    hedges: int = 0
    #: Hedge attempts whose page beat (or replaced) the primary's.
    hedge_wins: int = 0
    #: Pages ranked by the fleet's own popularity fallback.
    fleet_fallback_pages: int = 0
    by_source: Dict[str, int] = field(default_factory=dict)
    by_replica: Dict[str, int] = field(default_factory=dict)
    #: Per-served-request latency samples (seconds, fleet clock).
    latencies_s: List[float] = field(default_factory=list)
    #: Change-points of the fleet's health picture: one entry per
    #: request index at which the fleet state *or* any replica's state
    #: differed from the previous entry, as ``{"request": i, "fleet":
    #: state, "replicas": {name: state}}``.  This is the single surface
    #: a dashboard (or the month report) reads to plot
    #: HEALTHY/DEGRADED/SHEDDING spans without scraping the event
    #: transcript; :meth:`health_spans` renders it as intervals.
    health_timeline: List[Dict[str, object]] = field(default_factory=list)

    def record_health(
        self, request: int, fleet_state: str, replica_states: Dict[str, str]
    ) -> None:
        """Append a timeline entry iff the health picture changed."""
        if self.health_timeline:
            last = self.health_timeline[-1]
            if (
                last["fleet"] == fleet_state
                and last["replicas"] == replica_states
            ):
                return
        self.health_timeline.append(
            {
                "request": request,
                "fleet": fleet_state,
                "replicas": dict(replica_states),
            }
        )

    def health_spans(
        self, end_request: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """The timeline as half-open ``[start, end)`` request spans.

        ``end_request`` closes the final span (defaults to the request
        counter); each span carries the fleet state and the replica
        states that held throughout it.
        """
        if end_request is None:
            end_request = self.requests
        spans: List[Dict[str, object]] = []
        for i, entry in enumerate(self.health_timeline):
            end = (
                self.health_timeline[i + 1]["request"]
                if i + 1 < len(self.health_timeline)
                else end_request
            )
            spans.append(
                {
                    "start": entry["request"],
                    "end": end,
                    "fleet": entry["fleet"],
                    "replicas": dict(entry["replicas"]),
                }
            )
        return spans

    def record(self, source: str, served_by: str) -> None:
        self.served += 1
        self.by_source[source] = self.by_source.get(source, 0) + 1
        if served_by:
            self.by_replica[served_by] = self.by_replica.get(served_by, 0) + 1

    def record_latency(self, seconds: float) -> None:
        self.latencies_s.append(float(seconds))

    def latency_percentile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(self.latencies_s, q))

    def latency_summary(self) -> Dict[str, float]:
        """Fleet-wide p50/p95/p99 from the injected clock."""
        return {
            "n": float(len(self.latencies_s)),
            "p50": self.latency_percentile(50.0),
            "p95": self.latency_percentile(95.0),
            "p99": self.latency_percentile(99.0),
        }

    @property
    def model_served(self) -> int:
        """Pages ranked by an actual model (primary or CTR fallback)."""
        return self.by_source.get("primary", 0) + self.by_source.get(
            "ctr_provider", 0
        )


@dataclass
class _CanaryReplica:
    """A lifecycle candidate riding the fleet's routing path."""

    name: str
    service: RankingService
    version: str
    traffic_fraction: float
    salt: int


class ServingFleet:
    """Routes page requests across N independent ranking replicas."""

    def __init__(
        self,
        services: Sequence[RankingService],
        *,
        policy: Optional[FleetPolicy] = None,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        if len(services) < 1:
            raise ValueError("a fleet needs at least one replica")
        if names is None:
            names = [f"replica-{i}" for i in range(len(services))]
        if len(names) != len(services) or len(set(names)) != len(names):
            raise ValueError("names must be unique, one per replica")
        self.replicas = [
            Replica(name=name, service=service)
            for name, service in zip(names, services)
        ]
        self.policy = policy or FleetPolicy()
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._clock = clock or time.monotonic
        self.health = FleetHealthMonitor(self.policy)
        self.stats = FleetStats()
        self.transcript: List[FleetEvent] = []
        #: Registry version the replicas were loaded from (set by
        #: :meth:`from_registry`; None for hand-built fleets).
        self.version: Optional[str] = None
        self._canary: Optional[_CanaryReplica] = None
        self._shed_phase = 0
        # The model-free fallback ranks by the scenario's popularity
        # prior; every replica fronts the same scenario world.
        self._scenario = self.replicas[0].service.scenario
        self.page_size = self.replicas[0].service.page_size
        self._cvr_prior = float(
            self._scenario.config.target_cvr_given_click
        )

    # -- construction ---------------------------------------------------
    @classmethod
    def from_registry(
        cls,
        registry,
        factory,
        scenario,
        n_replicas: int,
        *,
        version: Optional[str] = None,
        policy: Optional[FleetPolicy] = None,
        service_policy=None,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
        **service_kwargs,
    ) -> "ServingFleet":
        """Build a fleet whose replicas serve frozen registry params.

        Each replica loads its *own* digest-verified copy of the given
        version (default: the serving champion), so no replica ever
        aliases a live training model and a corrupted blob is caught
        before it can take traffic.  ``service_kwargs`` (page_size,
        ctr_provider, ...) apply to every replica; ``service_policy``
        is the per-replica :class:`ServingPolicy` (``policy`` being the
        fleet-level one).
        """
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        if version is None:
            champion = registry.champion
            if champion is None:
                raise ValueError(
                    "registry has no champion; pass version= explicitly"
                )
            version = champion.version
        if clock is not None:
            service_kwargs.setdefault("clock", clock)
        if service_policy is not None:
            service_kwargs.setdefault("policy", service_policy)
        services = [
            RankingService(
                registry.load_model(version, factory), scenario, **service_kwargs
            )
            for _ in range(n_replicas)
        ]
        fleet = cls(services, policy=policy, seed=seed, clock=clock)
        fleet.version = version
        log_event(
            logger,
            "fleet_built_from_registry",
            version=version,
            n_replicas=n_replicas,
        )
        return fleet

    # -- replica liveness ----------------------------------------------
    def _resolve(self, replica: "int | str") -> Replica:
        if isinstance(replica, int):
            return self.replicas[replica]
        for handle in self.replicas:
            if handle.name == replica:
                return handle
        raise KeyError(
            f"unknown replica {replica!r}; fleet has "
            f"{[r.name for r in self.replicas]}"
        )

    def kill_replica(self, replica: "int | str") -> None:
        """Take a replica out of the fleet (chaos: the process died)."""
        handle = self._resolve(replica)
        handle.alive = False
        log_event(logger, "replica_killed", level=30, replica=handle.name)

    def revive_replica(self, replica: "int | str") -> None:
        """Bring a dead replica back with a clean failure budget.

        A revived replica is a fresh process serving the same frozen
        parameters: its breaker and health machine restart clean so
        stale pre-kill failures cannot keep it out of the rotation.
        """
        handle = self._resolve(replica)
        handle.alive = True
        handle.service.breaker.reset()
        handle.service.health.reset()
        log_event(logger, "replica_revived", replica=handle.name)

    def _available(self, handle: Replica) -> bool:
        return (
            handle.alive
            and handle.service.health.state != SHEDDING
            and handle.service.breaker.state != CircuitBreaker.OPEN
        )

    def _eligible(self, exclude: Set[str]) -> List[Replica]:
        return [
            r
            for r in self.replicas
            if r.name not in exclude and self._available(r)
        ]

    def _alive(self, exclude: Set[str]) -> List[Replica]:
        return [
            r for r in self.replicas if r.name not in exclude and r.alive
        ]

    # -- routing --------------------------------------------------------
    def _choose(self, pool: List[Replica]) -> Replica:
        """Power-of-two-choices on queue depth over ``pool``.

        Two distinct replicas are drawn from the fleet RNG and the one
        with the shallower admission queue wins (first draw on ties) --
        the classic load-balancing result: near-uniform load for one
        comparison, no global state.
        """
        if len(pool) == 1:
            return pool[0]
        first, second = self._rng.choice(len(pool), size=2, replace=False)
        a, b = pool[int(first)], pool[int(second)]
        return b if b.service.admission.depth < a.service.admission.depth else a

    def routes_to_canary(self, user: int) -> bool:
        """Would this user's traffic ride the canary replica?"""
        canary = self._canary
        return canary is not None and (
            stable_fraction(user, canary.salt) < canary.traffic_fraction
        )

    # -- canary ---------------------------------------------------------
    def attach_canary(
        self,
        service: RankingService,
        version: str,
        *,
        traffic_fraction: float = 0.1,
        salt: int = 0,
    ) -> None:
        """Register a lifecycle candidate as a real fleet replica.

        Canary users route to this replica through the same door as
        champion traffic -- fleet admission, hedging, transcript -- so
        the canary verdict reflects the exact serving path the model
        would own after promotion.  A sick canary degrades only its
        hash slice: its failures hedge onto champion replicas.
        """
        if self._canary is not None:
            raise RuntimeError(
                f"a canary ({self._canary.version}) is already attached; "
                "detach it first"
            )
        if not 0.0 < traffic_fraction < 1.0:
            raise ValueError(
                f"traffic_fraction must be in (0, 1), got {traffic_fraction}"
            )
        self._canary = _CanaryReplica(
            name=f"canary-{version}",
            service=service,
            version=version,
            traffic_fraction=traffic_fraction,
            salt=salt,
        )
        log_event(logger, "canary_attached", version=version)

    def detach_canary(self) -> None:
        """Remove the canary replica (idempotent); champion pool serves."""
        if self._canary is not None:
            log_event(logger, "canary_detached", version=self._canary.version)
        self._canary = None

    @property
    def canary(self) -> Optional[_CanaryReplica]:
        return self._canary

    @property
    def clock(self) -> Callable[[], float]:
        """The fleet's clock (the injected one, or ``time.monotonic``)."""
        return self._clock

    # -- health ---------------------------------------------------------
    def _update_health(self) -> str:
        available = sum(1 for r in self.replicas if self._available(r))
        return self.health.update(available, len(self.replicas))

    def snapshot(self) -> Dict[str, object]:
        """One structured view of the whole fleet, replica by replica."""
        stats = self.stats
        report: Dict[str, object] = {
            "fleet_health": self.health.snapshot(),
            "requests": stats.requests,
            "served": stats.served,
            "fleet_shed": stats.fleet_shed,
            "hedges": stats.hedges,
            "hedge_wins": stats.hedge_wins,
            "fleet_fallback_pages": stats.fleet_fallback_pages,
            "by_source": dict(stats.by_source),
            "by_replica": dict(stats.by_replica),
            "latency": stats.latency_summary(),
            "replicas": {
                r.name: {"alive": r.alive, **r.service.health_snapshot()}
                for r in self.replicas
            },
        }
        if self._canary is not None:
            report["canary"] = {
                "version": self._canary.version,
                "traffic_fraction": self._canary.traffic_fraction,
                **self._canary.service.health_snapshot(),
            }
        return report

    # Duck-type compatibility with RankingService for dashboards and
    # the canary rollout's arm_health().
    def health_snapshot(self) -> Dict[str, object]:
        return self.snapshot()

    # -- serving --------------------------------------------------------
    def _attempt(
        self,
        handle: Replica,
        user: int,
        candidates: np.ndarray,
        rng: np.random.Generator,
        deadline: Deadline,
    ) -> Tuple[np.ndarray, np.ndarray, str]:
        """One replica attempt; refusals surface as ReplicaUnavailable."""
        if not handle.alive:
            self.stats.replica_refusals += 1
            raise ReplicaUnavailableError(f"{handle.name} is down")
        budget: Optional[float] = None
        if deadline.budget_s is not None:
            remaining = deadline.remaining()
            if remaining <= 0:
                self.stats.replica_refusals += 1
                raise ReplicaUnavailableError(
                    f"deadline expired before {handle.name} could serve"
                )
            budget = remaining
        try:
            page, cvr = handle.service.serve_page(
                user, candidates, rng, deadline_s=budget
            )
        except Exception as exc:
            self.stats.replica_refusals += 1
            raise ReplicaUnavailableError(
                f"{handle.name} refused: {exc}"
            ) from exc
        return page, cvr, handle.service.stats.last_source

    def _popularity_page(
        self, candidates: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Model-free last resort: the scenario's Zipf popularity prior."""
        scores = self._scenario.item_popularity[candidates]
        cvr = np.full(len(candidates), self._cvr_prior)
        order = np.argsort(-scores)[: self.page_size]
        return candidates[order], cvr[order]

    def _log(self, event: FleetEvent) -> None:
        self.transcript.append(event)

    def serve_page(
        self,
        user: int,
        candidates: np.ndarray,
        rng: np.random.Generator,
        deadline_s: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Route, hedge, and serve one page; always ship or shed loudly.

        Raises :class:`~repro.reliability.errors.RequestShedError` only
        from fleet-level load shedding (lost quorum); an admitted
        request always gets a page -- from a replica if any can serve,
        from the popularity prior only when every replica is down.
        """
        if len(candidates) == 0:
            raise ValueError("cannot serve an empty candidate list")
        request_index = self.stats.requests
        self.stats.requests += 1
        state = self._update_health()
        self.stats.record_health(
            request_index,
            state,
            {
                r.name: (r.service.health.state if r.alive else "down")
                for r in self.replicas
            },
        )
        deadline = Deadline(
            self.policy.deadline_s if deadline_s is None else deadline_s,
            self._clock,
        )

        # Graceful degradation at the fleet door: lost quorum sheds a
        # thin deterministic slice (protecting survivors), total loss
        # sheds most traffic while the popularity fallback keeps the
        # admitted slice alive.
        if state == DEGRADED:
            self._shed_phase += 1
            if self._shed_phase % self.policy.degraded_shed_stride == 0:
                self.stats.fleet_shed += 1
                self._log(
                    FleetEvent(
                        request_index, user, state, "", False, "", 0.0, "", "",
                        "shed",
                    )
                )
                raise RequestShedError(
                    f"fleet shedding under lost quorum (state={state})"
                )
        elif state == CRITICAL:
            self._shed_phase += 1
            if self._shed_phase % self.policy.critical_shed_stride != 0:
                self.stats.fleet_shed += 1
                self._log(
                    FleetEvent(
                        request_index, user, state, "", False, "", 0.0, "", "",
                        "shed",
                    )
                )
                raise RequestShedError(
                    f"fleet shedding under total replica loss (state={state})"
                )

        tried: Set[str] = set()
        page = cvr = None
        source = ""
        served_by = ""
        hedged = False
        hedge_name = ""
        jitter = 0.0

        # Primary routing: the canary slice rides the canary replica
        # when it can take traffic; everything else is power-of-two-
        # choices over the eligible champion pool.
        primary: Optional[Replica] = None
        canary = self._canary
        if canary is not None and self.routes_to_canary(user):
            candidate_handle = Replica(canary.name, canary.service)
            if self._available(candidate_handle):
                primary = candidate_handle
        if primary is None:
            eligible = self._eligible(tried)
            if eligible:
                primary = self._choose(eligible)

        if primary is not None:
            tried.add(primary.name)
            try:
                page, cvr, source = self._attempt(
                    primary, user, candidates, rng, deadline
                )
                served_by = primary.name
            except ReplicaUnavailableError:
                pass

            # Hedge: the primary refused, or it answered from its
            # model-free prior and the deadline can afford one more try
            # against a different replica.
            for _ in range(self.policy.hedge_retries):
                if page is not None and source != "popularity":
                    break
                if (
                    deadline.budget_s is not None
                    and deadline.remaining() <= self.policy.hedge_min_remaining_s
                ):
                    break
                pool = self._eligible(tried) or self._alive(tried)
                if not pool:
                    break
                alt = self._choose(pool)
                tried.add(alt.name)
                # Hedges follow at once; the jitter draw is kept in the
                # seeded transcript and keeps the router's RNG stream.
                jitter = float(self._rng.random())
                hedged = True
                hedge_name = alt.name
                self.stats.hedges += 1
                try:
                    alt_page, alt_cvr, alt_source = self._attempt(
                        alt, user, candidates, rng, deadline
                    )
                except ReplicaUnavailableError:
                    continue
                if _SOURCE_RANK[alt_source] > _SOURCE_RANK[source]:
                    page, cvr, source = alt_page, alt_cvr, alt_source
                    served_by = alt.name
                    self.stats.hedge_wins += 1

        if page is None:
            # Every replica is down or refused: the page still ships,
            # ranked by the model-free popularity prior.
            page, cvr = self._popularity_page(candidates)
            source = FLEET_POPULARITY
            served_by = ""
            self.stats.fleet_fallback_pages += 1

        self.stats.record(source, served_by)
        self.stats.record_latency(deadline.elapsed())
        self._log(
            FleetEvent(
                request_index,
                user,
                state,
                primary.name if primary is not None else "",
                hedged,
                hedge_name,
                jitter,
                source,
                served_by,
                "served",
            )
        )
        return page, cvr

    def transcript_lines(self) -> List[str]:
        """The whole episode as stable strings (drill transcripts)."""
        return [event.line() for event in self.transcript]


# ---------------------------------------------------------------------------
# Chaos drills
# ---------------------------------------------------------------------------
@dataclass
class FleetDrillReport:
    """Outcome of one seeded chaos drill against a fleet."""

    requests: int
    served: int
    shed: int
    #: Served pages per scoring source ("primary", "ctr_provider",
    #: "popularity", "fleet_popularity").
    by_source: Dict[str, int]
    #: Fault applications, in order ("kill replica-2 @ step 120", ...).
    fault_log: List[str]
    #: Fault lines interleaved with per-request routing lines -- the
    #: bit-comparable record of the whole episode.  Two drills with the
    #: same fleet seed, traffic seed, and schedule produce identical
    #: transcripts.
    transcript: List[str]

    @property
    def model_served(self) -> int:
        """Pages ranked by an actual model (primary or CTR fallback)."""
        return self.by_source.get("primary", 0) + self.by_source.get(
            "ctr_provider", 0
        )

    @property
    def model_served_fraction(self) -> float:
        """Fraction of *all* requests answered by a real model."""
        if self.requests == 0:
            return 0.0
        return self.model_served / self.requests

    def summary(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "served": self.served,
            "shed": self.shed,
            "model_served": self.model_served,
            "model_served_fraction": self.model_served_fraction,
            "by_source": dict(self.by_source),
            "faults": list(self.fault_log),
        }


class FleetChaosDrill:
    """Replays a seeded replica-fault schedule against a live fleet.

    The schedule comes from
    :func:`~repro.reliability.faults.build_fleet_fault_schedule` (or is
    hand-built from :class:`~repro.reliability.faults.ReplicaFault`).
    Three fault kinds are understood:

    * ``kill`` -- the replica drops out of the fleet at ``start`` (and
      revives after ``duration`` steps, if set, with a clean breaker);
    * ``slowdown`` -- every scoring call on the replica burns
      ``latency_s`` seconds, advancing the injected clock when one was
      provided (an object with a mutable ``now``), else really sleeping;
    * ``nan_predictions`` -- the replica's scorer returns all-NaN
      scores, which its sanitizer rejects into the breaker.

    Scoring faults shadow ``service.score_candidates`` on the instance
    (the :class:`~repro.reliability.chaos.ChaosScoring` pattern) and are
    always restored when :meth:`run` returns; kills and revives are real
    fleet state transitions and persist so the post-drill fleet can be
    inspected mid-outage.
    """

    def __init__(
        self,
        fleet: ServingFleet,
        schedule: Sequence[ReplicaFault],
        *,
        clock: Optional[object] = None,
    ) -> None:
        n = len(fleet.replicas)
        for fault in schedule:
            if not 0 <= fault.replica < n:
                raise ValueError(
                    f"fault targets replica {fault.replica} but the fleet "
                    f"has {n} replicas"
                )
        self.fleet = fleet
        self.schedule = list(schedule)
        # Default to the fleet's own clock: when the fleet runs on an
        # injected clock, slowdowns and ``step_duration_s`` advance the
        # same timeline its breakers and deadlines read.
        self._clock = clock if clock is not None else fleet.clock
        self._originals: Dict[int, Callable] = {}
        self._active: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def _advance(self, seconds: float) -> None:
        clock = self._clock
        if clock is not None and hasattr(clock, "now"):
            clock.now += seconds
        else:
            time.sleep(seconds)

    def _install(self, idx: int, active: tuple, step: int) -> List[str]:
        service = self.fleet.replicas[idx].service
        if idx not in self._originals:
            self._originals[idx] = service.score_candidates
        base = self._originals[idx]
        name = self.fleet.replicas[idx].name
        if not active:
            if "score_candidates" in vars(service):
                del service.score_candidates
            return [f"[{step:05d}] fault clear {name}"]
        slow = sum(lat for kind, lat in active if kind == REPLICA_SLOWDOWN)
        nan = any(kind == REPLICA_NAN for kind, _ in active)

        def faulted_score_candidates(
            user, candidates, rng, _base=base, _slow=slow, _nan=nan
        ):
            if _slow:
                self._advance(_slow)
            if _nan:
                n = len(candidates)
                return np.full(n, np.nan), np.full(n, np.nan)
            return _base(user, candidates, rng)

        service.score_candidates = faulted_score_candidates
        kinds = "+".join(sorted({kind for kind, _ in active}))
        return [f"[{step:05d}] fault install {name} kinds={kinds}"]

    def _apply_faults(self, step: int) -> List[str]:
        lines: List[str] = []
        for fault in self.schedule:
            if fault.kind != REPLICA_KILL:
                continue
            name = self.fleet.replicas[fault.replica].name
            if step == fault.start:
                self.fleet.kill_replica(fault.replica)
                lines.append(f"[{step:05d}] fault kill {name}")
            elif (
                fault.duration is not None
                and step == fault.start + fault.duration
            ):
                self.fleet.revive_replica(fault.replica)
                lines.append(f"[{step:05d}] fault revive {name}")
        for idx in range(len(self.fleet.replicas)):
            active = tuple(
                sorted(
                    (f.kind, f.latency_s)
                    for f in self.schedule
                    if f.replica == idx
                    and f.kind in (REPLICA_SLOWDOWN, REPLICA_NAN)
                    and f.active(step)
                )
            )
            if active != self._active.get(idx, ()):
                lines.extend(self._install(idx, active, step))
                self._active[idx] = active
        return lines

    def _restore(self) -> None:
        for idx in self._originals:
            service = self.fleet.replicas[idx].service
            if "score_candidates" in vars(service):
                del service.score_candidates
        self._originals.clear()
        self._active.clear()

    # ------------------------------------------------------------------
    def run(
        self,
        n_requests: int,
        *,
        seed: int = 0,
        deadline_s: Optional[float] = None,
        candidates_per_page: int = 20,
        step_duration_s: float = 0.0,
    ) -> FleetDrillReport:
        """Drive seeded traffic through the fleet under the schedule.

        ``step_duration_s`` advances the injected clock between
        requests -- the wall time a real fleet would see between
        arrivals, which is what lets open breakers cool down and probe
        half-open mid-drill.  The default (0.0) freezes time outside
        the faults themselves.
        """
        if n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {n_requests}")
        if step_duration_s < 0:
            raise ValueError(
                f"step_duration_s must be >= 0, got {step_duration_s}"
            )
        fleet = self.fleet
        config = fleet.replicas[0].service.scenario.config
        n_candidates = min(candidates_per_page, config.n_items)
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, n_requests, len(fleet.replicas)])
        )
        base = len(fleet.transcript)
        transcript: List[str] = []
        fault_log: List[str] = []
        served = shed = 0
        try:
            for step in range(n_requests):
                if step_duration_s:
                    self._advance(step_duration_s)
                fault_lines = self._apply_faults(step)
                fault_log.extend(fault_lines)
                transcript.extend(fault_lines)
                user = int(rng.integers(0, config.n_users))
                candidates = rng.choice(
                    config.n_items, size=n_candidates, replace=False
                )
                try:
                    fleet.serve_page(user, candidates, rng, deadline_s=deadline_s)
                    served += 1
                except RequestShedError:
                    shed += 1
                transcript.append(fleet.transcript[-1].line())
        finally:
            self._restore()
        by_source: Dict[str, int] = {}
        for event in fleet.transcript[base:]:
            if event.outcome == "served":
                by_source[event.source] = by_source.get(event.source, 0) + 1
        report = FleetDrillReport(
            requests=n_requests,
            served=served,
            shed=shed,
            by_source=by_source,
            fault_log=fault_log,
            transcript=transcript,
        )
        log_event(
            logger,
            "fleet_drill_complete",
            requests=n_requests,
            served=served,
            shed=shed,
            model_served=report.model_served,
        )
        return report
