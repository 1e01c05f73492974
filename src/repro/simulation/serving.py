"""Model serving: score candidates and produce a ranked page.

Ranking uses the model's CTCVR prediction (``o_hat * r_hat``), the
business objective of the paper's search scenario (maximise double
clicks per page view).  Because features depend on the display
position, candidates are scored *as if* shown at the top position and
the resulting order determines the actual positions -- the standard
score-then-place serving loop.

Serving is degradation-tolerant end to end:

* the primary scorer runs behind a circuit breaker with bounded,
  deadline-aware retries, and on failure the service walks a fallback
  chain -- the shared CTR model, then a static popularity prior -- so
  an *admitted* request always gets a page;
* a prediction sanitizer rejects NaN/out-of-[0,1] scores before they
  reach ranking, feeding the breaker exactly like a thrown exception;
* a bounded admission queue sheds arrivals when full, and a health
  state machine (HEALTHY -> DEGRADED -> SHEDDING, see
  :mod:`repro.reliability.health`) driven by the breaker, the drift
  sentinels, and the queue depth sheds a deterministic fraction of
  traffic while the service is overwhelmed;
* an optional :class:`~repro.reliability.drift.DriftSentinel` observes
  every primary-path prediction, so distribution shift is a first-class
  degradation signal.

Which path produced each page is observable through
:class:`ServingStats`, ``service.breaker.state``, ``service.health``
and ``service.admission``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.data.dataset import Batch
from repro.data.synthetic import SyntheticScenario
from repro.models.base import MultiTaskModel
from repro.reliability.circuit import CircuitBreaker
from repro.reliability.config import AdmissionPolicy, ServingPolicy
from repro.reliability.drift import DriftSentinel
from repro.reliability.errors import RequestShedError, ScoringUnavailableError
from repro.reliability.health import SHEDDING, HealthMonitor, HealthPolicy
from repro.reliability.timeouts import Deadline
from repro.utils.logging import get_logger, log_event

logger = get_logger("simulation.serving")

# ``Deadline`` is re-exported here for the many call sites (fleet,
# tests, examples) that historically imported it from this module; it
# now lives with the rest of the retry/backoff machinery in
# :mod:`repro.reliability.timeouts`.


class AdmissionQueue:
    """Bounded request queue standing in for the server's run queue.

    Each in-flight request holds one slot (``try_admit``/``release``);
    a full queue sheds arrivals.  Simulations of backlog can pin slots
    with :meth:`occupy` (a load generator holding requests open) and
    free them with :meth:`drain`.  Pinned slots may carry a
    :class:`Deadline`; entries whose deadline has expired are purged
    *before* every admission decision, so stale requests that nobody
    will wait for stop consuming capacity and shedding fresh traffic.
    """

    def __init__(self, policy: Optional[AdmissionPolicy] = None) -> None:
        self.policy = policy or AdmissionPolicy()
        #: Slots held by requests currently being served.
        self._inflight = 0
        #: Pinned backlog slots, each optionally carrying its deadline.
        self._backlog: List[Optional[Deadline]] = []
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        #: Backlog entries dropped because their deadline expired.
        self.expired_purged = 0

    @property
    def depth(self) -> int:
        """Occupied slots: in-flight requests plus pinned backlog."""
        return self._inflight + len(self._backlog)

    @property
    def fraction(self) -> float:
        """Current fullness in [0, 1]."""
        return self.depth / self.policy.max_queue_depth

    def purge_expired(self) -> int:
        """Drop backlog entries whose deadline has expired.

        Returns how many were purged.  Runs automatically at the top of
        :meth:`try_admit`, so admission decisions never count a request
        that has already timed out against capacity.
        """
        live = [d for d in self._backlog if d is None or not d.expired()]
        purged = len(self._backlog) - len(live)
        if purged:
            self._backlog = live
            self.expired_purged += purged
        return purged

    def try_admit(self) -> bool:
        self.purge_expired()
        self.offered += 1
        if self.depth >= self.policy.max_queue_depth:
            self.rejected += 1
            return False
        self._inflight += 1
        self.admitted += 1
        return True

    def release(self) -> None:
        self._inflight = max(self._inflight - 1, 0)

    def occupy(self, n: int, deadline: Optional[Deadline] = None) -> None:
        """Pin ``n`` slots (simulated backlog; capped at capacity).

        ``deadline`` attaches a latency budget to the pinned entries;
        once it expires the next admission decision purges them.
        """
        room = max(self.policy.max_queue_depth - self.depth, 0)
        self._backlog.extend([deadline] * min(n, room))

    def drain(self, n: Optional[int] = None) -> None:
        """Free ``n`` pinned slots (all of them when ``None``)."""
        if n is None:
            self._backlog.clear()
        else:
            del self._backlog[: max(n, 0)]


@dataclass
class ServingStats:
    """Counters for the primary path and every degradation event."""

    requests: int = 0
    primary: int = 0
    retries: int = 0
    breaker_short_circuits: int = 0
    fallback_ctr_provider: int = 0
    fallback_popularity: int = 0
    #: Requests refused by admission control (queue full or SHEDDING).
    shed: int = 0
    #: Requests whose primary retries were abandoned on the deadline.
    deadline_fallbacks: int = 0
    #: Scorer outputs rejected for NaN/out-of-range values.
    sanitizer_rejections: int = 0
    #: Scoring source of the most recent request.
    last_source: str = ""
    #: Requests served per source (redundant with the counters above,
    #: but convenient for dashboards).
    by_source: Dict[str, int] = field(default_factory=dict)
    #: Per-served-request latency samples (seconds, injected clock).
    latencies_s: List[float] = field(default_factory=list)

    def record(self, source: str) -> None:
        self.last_source = source
        self.by_source[source] = self.by_source.get(source, 0) + 1

    def record_latency(self, seconds: float) -> None:
        self.latencies_s.append(float(seconds))

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th latency percentile (0.0 with no samples)."""
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(self.latencies_s, q))

    def latency_summary(self) -> Dict[str, float]:
        """p50/p95/p99 over every served request, from the service clock."""
        return {
            "n": float(len(self.latencies_s)),
            "p50": self.latency_percentile(50.0),
            "p95": self.latency_percentile(95.0),
            "p99": self.latency_percentile(99.0),
        }

    @property
    def degraded_fraction(self) -> float:
        """Share of requests not served by the primary scorer."""
        if self.requests == 0:
            return 0.0
        return 1.0 - self.primary / self.requests


def _validate_scoring_model(model, role: str) -> None:
    """A usable scorer: a real model whose parameters are finite.

    "Fitted" cannot be observed directly (the substrate has no fitted
    flag), so we check the strongest available proxy: the object is a
    :class:`MultiTaskModel` with at least one parameter and no NaN/inf
    weights -- the state any diverged or half-loaded model fails.
    """
    if not isinstance(model, MultiTaskModel):
        raise TypeError(
            f"{role} must be a MultiTaskModel, got {type(model).__name__}"
        )
    params = model.parameters()
    if not params:
        raise ValueError(f"{role} has no parameters")
    for p in params:
        if not np.all(np.isfinite(p.data)):
            raise ValueError(
                f"{role} has non-finite parameters; refusing to serve a "
                "diverged model"
            )


def _check_probabilities(values: np.ndarray, what: str) -> None:
    """Sanitizer core: finite and inside [0, 1], or the scorer failed."""
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ScoringUnavailableError(f"sanitizer: non-finite {what}")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise ScoringUnavailableError(f"sanitizer: {what} outside [0, 1]")


class RankingService:
    """Serves top-k pages for one model against one scenario world."""

    def __init__(
        self,
        model: MultiTaskModel,
        scenario: SyntheticScenario,
        page_size: int = 10,
        objective: str = "ctcvr",
        ctr_provider: Optional[MultiTaskModel] = None,
        policy: Optional[ServingPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        sentinel: Optional[DriftSentinel] = None,
        admission: Optional[AdmissionPolicy] = None,
        health: Optional[HealthPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        if objective not in ("ctcvr", "cvr", "ctr"):
            raise ValueError(f"unknown ranking objective {objective!r}")
        _validate_scoring_model(model, "model")
        model.eval()
        if ctr_provider is not None:
            _validate_scoring_model(ctr_provider, "ctr_provider")
            ctr_provider.eval()
        self.model = model
        self.scenario = scenario
        self.page_size = page_size
        self.objective = objective
        #: Optional shared CTR model.  In the paper's A/B test the
        #: buckets deploy different *CVR* estimators while the rest of
        #: the production stack (including the CTR estimate entering
        #: the ranking formula) is shared; passing the base bucket's
        #: model here reproduces that isolation.  It doubles as the
        #: first fallback scorer when the primary path fails.
        self.ctr_provider = ctr_provider
        self.policy = policy or ServingPolicy()
        self._clock = clock or time.monotonic
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=self.policy.breaker_failure_threshold,
            recovery_time=self.policy.breaker_recovery_time,
            clock=self._clock,
        )
        self.sentinel = sentinel
        self.admission = AdmissionQueue(admission)
        self.health = HealthMonitor(health or HealthPolicy())
        self.stats = ServingStats()
        #: CVR prior reported for fallback-served pages (the scenario's
        #: calibrated click-space conversion rate).
        self._cvr_prior = float(scenario.config.target_cvr_given_click)
        #: Propensity (CTR) predictions of the most recent primary
        #: scoring call, for the drift sentinel.
        self._last_ctr: Optional[np.ndarray] = None
        #: Deterministic shed pattern position (SHEDDING state).
        self._shed_phase = 0

    # ------------------------------------------------------------------
    def swap_model(self, model: MultiTaskModel) -> None:
        """Replace the primary scorer in place (promotion / rollback).

        The incoming model is validated exactly like the constructor's
        (a diverged or half-loaded model is refused before it can take
        traffic), the breaker is reset so the new model starts with a
        clean failure budget, and the drift sentinel's serving window is
        cleared so the old model's prediction distribution cannot trip
        (or mask) drift on the new one.  Stats and health transitions
        are retained -- a swap is an event inside one serving timeline,
        not a new service.  Like the constructor's, the incoming model
        is put in eval mode once here, so served pages never switch
        modes.
        """
        _validate_scoring_model(model, "model")
        model.eval()
        self.model = model
        self.breaker.reset()
        if self.sentinel is not None:
            self.sentinel.reset()
        self._last_ctr = None
        log_event(logger, "model_swapped", breaker=self.breaker.state)

    def health_snapshot(self) -> Dict[str, object]:
        """One structured view of every degradation signal.

        The canary controller renders this per arm; operators get the
        health state, breaker counters, queue depth, shed count, and
        drift status without cross-referencing four objects.
        """
        return {
            "health": self.health.snapshot(),
            "breaker": self.breaker.snapshot(),
            "queue_depth": self.admission.depth,
            "queue_capacity": self.admission.policy.max_queue_depth,
            "shed": self.stats.shed,
            "requests": self.stats.requests,
            "degraded_fraction": self.stats.degraded_fraction,
            "sanitizer_rejections": self.stats.sanitizer_rejections,
            "latency": self.stats.latency_summary(),
            "drift": (
                "ok" if self.sentinel is None else self.sentinel.status()
            ),
        }

    # ------------------------------------------------------------------
    def _features(
        self,
        user: int,
        candidates: np.ndarray,
        rng: np.random.Generator,
    ) -> Batch:
        n = len(candidates)
        users = np.full(n, user)
        positions = np.zeros(n, dtype=np.int64)  # scored as-if top slot
        sparse, dense = self.scenario.features_for(users, candidates, positions, rng)
        return Batch(
            sparse=sparse,
            dense=dense,
            clicks=np.zeros(n, dtype=np.int64),
            conversions=np.zeros(n, dtype=np.int64),
        )

    def score_candidates(
        self,
        user: int,
        candidates: np.ndarray,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(scores, cvr_predictions)`` for the candidate items."""
        batch = self._features(user, candidates, rng)
        preds = self.model.predict(batch)
        ctr = preds.ctr
        if self.ctr_provider is not None and self.ctr_provider is not self.model:
            ctr = self.ctr_provider.predict(batch).ctr
        self._last_ctr = ctr
        scores = {
            "ctcvr": ctr * preds.cvr,
            "cvr": preds.cvr,
            "ctr": ctr,
        }[self.objective]
        return scores, preds.cvr

    # -- the fallback chain --------------------------------------------
    def _score_with_fallback(
        self,
        user: int,
        candidates: np.ndarray,
        rng: np.random.Generator,
        deadline: Deadline,
    ) -> Tuple[np.ndarray, np.ndarray, str]:
        """Primary scorer -> shared CTR model -> popularity prior.

        Every failure of the primary path (thrown *or* sanitized away)
        feeds the circuit breaker; while the breaker is open the primary
        is skipped outright, so a dead model costs one state check
        instead of a retry storm.  An expired deadline abandons the
        remaining retries and rides the fallback chain immediately --
        the page still ships, just from a cheaper scorer.
        """
        policy = self.policy
        if deadline.expired():
            self.stats.deadline_fallbacks += 1
        elif self.breaker.allow():
            for attempt in range(1 + policy.max_retries):
                try:
                    scores, cvr = self.score_candidates(user, candidates, rng)
                    self._sanitize_primary(scores, cvr)
                except Exception as exc:
                    self.breaker.record_failure()
                    wrapped = (
                        exc
                        if isinstance(exc, ScoringUnavailableError)
                        else ScoringUnavailableError(f"primary scorer failed: {exc}")
                    )
                    log_event(
                        logger,
                        "scoring_failure",
                        level=30,  # WARNING
                        attempt=attempt,
                        breaker=self.breaker.state,
                        error=str(wrapped),
                    )
                    if attempt < policy.max_retries and deadline.expired():
                        self.stats.deadline_fallbacks += 1
                        break
                    if attempt < policy.max_retries and self.breaker.allow():
                        self.stats.retries += 1
                        continue
                    break
                else:
                    self.breaker.record_success()
                    self.stats.primary += 1
                    self._observe_drift(cvr)
                    return scores, cvr, "primary"
        else:
            self.stats.breaker_short_circuits += 1

        if self.ctr_provider is not None and self.ctr_provider is not self.model:
            try:
                batch = self._features(user, candidates, rng)
                ctr = self.ctr_provider.predict(batch).ctr
                _check_probabilities(ctr, "fallback CTR scores")
                self.stats.fallback_ctr_provider += 1
                cvr = np.full(len(candidates), self._cvr_prior)
                return ctr, cvr, "ctr_provider"
            except ScoringUnavailableError as exc:
                self.stats.sanitizer_rejections += 1
                log_event(
                    logger, "fallback_ctr_failure", level=30, error=str(exc)
                )
            except Exception as exc:
                log_event(
                    logger, "fallback_ctr_failure", level=30, error=str(exc)
                )

        # Last resort: the scenario's Zipf popularity prior.  Static,
        # model-free, and cannot fail -- the page is always served.
        scores = self.scenario.item_popularity[candidates]
        cvr = np.full(len(candidates), self._cvr_prior)
        self.stats.fallback_popularity += 1
        return scores, cvr, "popularity"

    def _sanitize_primary(self, scores: np.ndarray, cvr: np.ndarray) -> None:
        """Reject NaN/out-of-range predictions before they rank a page.

        A rejection is a primary-path failure: it raises
        :class:`ScoringUnavailableError` inside the retry loop, feeds
        the breaker, and engages the existing fallback chain.
        """
        try:
            _check_probabilities(scores, f"{self.objective} scores")
            _check_probabilities(cvr, "cvr predictions")
        except ScoringUnavailableError:
            self.stats.sanitizer_rejections += 1
            raise

    def _observe_drift(self, cvr: np.ndarray) -> None:
        if self.sentinel is None:
            return
        self.sentinel.observe(o_hat=self._last_ctr, cvr=cvr)

    def _update_health(self) -> str:
        drift = self.sentinel.status() if self.sentinel is not None else "ok"
        return self.health.update(
            breaker_open=self.breaker.state == CircuitBreaker.OPEN,
            drift_status=drift,
            queue_fraction=self.admission.fraction,
        )

    # ------------------------------------------------------------------
    def serve_page(
        self,
        user: int,
        candidates: np.ndarray,
        rng: np.random.Generator,
        deadline_s: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rank candidates; return ``(page_items, cvr_predictions)``.

        ``page_items`` are the top ``page_size`` item ids in display
        order; ``cvr_predictions`` are the model's CVR estimates for
        those items (logged for the Fig. 7 analysis).  When the primary
        scorer is unavailable the fallback chain ranks the page instead
        (see :class:`ServingStats` for which path served what).

        ``deadline_s`` overrides ``policy.deadline_s`` for this request.
        Raises :class:`~repro.reliability.errors.RequestShedError` when
        admission control refuses the request (full queue, or SHEDDING
        health state); an admitted request always gets a page.
        """
        if len(candidates) == 0:
            raise ValueError("cannot serve an empty candidate list")
        self.stats.requests += 1

        state = self._update_health()
        if state == SHEDDING:
            self._shed_phase += 1
            if self._shed_phase % self.admission.policy.shed_stride != 0:
                self.stats.shed += 1
                raise RequestShedError(
                    f"shedding load (health={state}, "
                    f"queue {self.admission.depth}/"
                    f"{self.admission.policy.max_queue_depth})"
                )
        if not self.admission.try_admit():
            self.stats.shed += 1
            raise RequestShedError(
                f"admission queue full "
                f"({self.admission.depth}/{self.admission.policy.max_queue_depth})"
            )
        try:
            deadline = Deadline(
                self.policy.deadline_s if deadline_s is None else deadline_s,
                self._clock,
            )
            scores, cvr, source = self._score_with_fallback(
                user, candidates, rng, deadline
            )
        finally:
            self.admission.release()
        self.stats.record(source)
        self.stats.record_latency(deadline.elapsed())
        self._update_health()
        # Belt-and-braces: whatever path served, the CVR estimates the
        # caller logs are finite and inside [0, 1].
        cvr = np.clip(np.nan_to_num(cvr, nan=self._cvr_prior), 0.0, 1.0)
        order = np.argsort(-scores)[: self.page_size]
        return candidates[order], cvr[order]
