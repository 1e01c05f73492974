"""Deadline-aware admission control: deadlines, shedding, health states.

The acceptance drill: under seeded chaos plus injected drift and
backlog, the service walks HEALTHY -> DEGRADED -> SHEDDING and back,
never returns NaN or out-of-range CVR estimates, respects deadlines,
and the whole episode is bit-for-bit reproducible.
"""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.reliability import ChaosScoring, CircuitBreaker
from repro.reliability.config import AdmissionPolicy, ServingPolicy
from repro.reliability.drift import (
    DriftReference,
    DriftSentinel,
    DriftThresholds,
    ReferenceDistribution,
)
from repro.reliability.errors import RequestShedError
from repro.reliability.health import (
    DEGRADED,
    HEALTHY,
    SHEDDING,
    HealthMonitor,
    HealthPolicy,
)
from repro.simulation.serving import (
    AdmissionQueue,
    Deadline,
    RankingService,
    ServingStats,
)

pytestmark = pytest.mark.robustness

MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)


@pytest.fixture(scope="module")
def world():
    train, _, scenario = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=1500, n_test=200
    )
    primary = build_model("dcmt", train.schema, MODEL_CONFIG)
    ctr = build_model("esmm", train.schema, MODEL_CONFIG.with_overrides(seed=1))
    return scenario, primary, ctr


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_service(world, **kwargs):
    scenario, primary, ctr = world
    kwargs.setdefault("ctr_provider", ctr)
    kwargs.setdefault(
        "policy", ServingPolicy(max_retries=1, breaker_failure_threshold=3)
    )
    return RankingService(primary, scenario, page_size=8, **kwargs)


class TestDeadline:
    def test_no_budget_never_expires(self):
        clock = FakeClock()
        deadline = Deadline(None, clock)
        clock.now = 1e9
        assert deadline.remaining() == float("inf")
        assert not deadline.expired()

    def test_budget_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock)
        clock.now = 0.4
        assert deadline.elapsed() == pytest.approx(0.4)
        assert deadline.remaining() == pytest.approx(0.6)
        assert not deadline.expired()
        clock.now = 1.0
        assert deadline.expired()

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_s"):
            Deadline(0.0, FakeClock())
        with pytest.raises(ValueError, match="budget_s"):
            Deadline(-1.0, FakeClock())


class TestAdmissionQueue:
    def test_admits_until_full_then_sheds(self):
        queue = AdmissionQueue(AdmissionPolicy(max_queue_depth=2))
        assert queue.try_admit() and queue.try_admit()
        assert not queue.try_admit()
        assert (queue.offered, queue.admitted, queue.rejected) == (3, 2, 1)
        assert queue.fraction == 1.0

    def test_release_frees_a_slot(self):
        queue = AdmissionQueue(AdmissionPolicy(max_queue_depth=1))
        assert queue.try_admit()
        assert not queue.try_admit()
        queue.release()
        assert queue.try_admit()

    def test_release_never_goes_negative(self):
        queue = AdmissionQueue()
        queue.release()
        assert queue.depth == 0

    def test_occupy_caps_at_capacity_and_drain(self):
        queue = AdmissionQueue(AdmissionPolicy(max_queue_depth=4))
        queue.occupy(100)
        assert queue.depth == 4
        queue.drain(1)
        assert queue.depth == 3
        queue.drain()
        assert queue.depth == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(shed_stride=0)

    def test_expired_backlog_is_purged_before_admission(self):
        # Regression: a backlog of requests whose deadlines have
        # already passed must not keep shedding fresh arrivals -- the
        # dead entries are purged when the next admission is decided.
        clock = FakeClock()
        queue = AdmissionQueue(AdmissionPolicy(max_queue_depth=2))
        queue.occupy(2, deadline=Deadline(0.5, clock))
        assert queue.depth == 2
        assert not queue.try_admit()  # full of waiting work
        clock.now = 1.0  # both backlog deadlines are now expired
        assert queue.try_admit()
        assert queue.depth == 1  # the admitted request, dead wood gone
        assert queue.expired_purged == 2

    def test_unexpired_backlog_still_counts(self):
        clock = FakeClock()
        queue = AdmissionQueue(AdmissionPolicy(max_queue_depth=2))
        queue.occupy(2, deadline=Deadline(10.0, clock))
        clock.now = 1.0  # well within budget
        assert not queue.try_admit()
        assert queue.expired_purged == 0

    def test_deadline_free_backlog_is_never_purged(self):
        clock = FakeClock()
        queue = AdmissionQueue(AdmissionPolicy(max_queue_depth=2))
        queue.occupy(2)  # synthetic load with no deadlines
        clock.now = 1e9
        assert queue.purge_expired() == 0
        assert queue.depth == 2


class TestLatencyPercentiles:
    def test_empty_stats_report_zeros(self):
        stats = ServingStats()
        assert stats.latency_percentile(99.0) == 0.0
        assert stats.latency_summary() == {
            "n": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0
        }

    def test_percentiles_from_injected_clock(self, world):
        clock = FakeClock()
        service = make_service(world, clock=clock)
        base = service.score_candidates
        delays = iter([0.01] * 50 + [0.5])  # one slow outlier request

        def slow(user, candidates, rng):
            clock.now += next(delays)
            return base(user, candidates, rng)

        service.score_candidates = slow
        rng = np.random.default_rng(0)
        for _ in range(51):
            candidates = rng.choice(50, size=12, replace=False)
            service.serve_page(int(rng.integers(0, 40)), candidates, rng)
        summary = service.stats.latency_summary()
        assert summary["n"] == 51
        # The bulk of traffic sits at 10ms; only the tail percentile is
        # pulled up by the single slow request.
        assert summary["p50"] == pytest.approx(0.01)
        assert summary["p95"] == pytest.approx(0.01)
        assert summary["p99"] > 0.01
        assert service.health_snapshot()["latency"] == summary


class TestHealthMonitor:
    def test_starts_healthy_and_stays_on_clean_signals(self):
        monitor = HealthMonitor()
        for _ in range(5):
            assert monitor.update() == HEALTHY
        assert monitor.transitions == []

    def test_escalation_is_immediate(self):
        monitor = HealthMonitor()
        assert monitor.update(breaker_open=True) == DEGRADED
        assert monitor.update(queue_fraction=0.95) == SHEDDING
        assert [t.to_state for t in monitor.transitions] == [DEGRADED, SHEDDING]

    def test_breaker_plus_drift_sheds(self):
        monitor = HealthMonitor()
        assert monitor.update(breaker_open=True, drift_status="trip") == SHEDDING
        assert "drift" in monitor.transitions[-1].reason

    def test_drift_trip_alone_degrades(self):
        monitor = HealthMonitor()
        assert monitor.update(drift_status="trip") == DEGRADED

    def test_recovery_steps_down_one_level_after_grace(self):
        monitor = HealthMonitor(HealthPolicy(recovery_grace=3))
        monitor.update(queue_fraction=1.0)
        assert monitor.state == SHEDDING
        for _ in range(2):
            assert monitor.update() == SHEDDING  # grace not yet met
        assert monitor.update() == DEGRADED  # one level, not straight home
        for _ in range(2):
            monitor.update()
        assert monitor.update() == HEALTHY
        assert "recovered after 3 clean evaluations" in (
            monitor.transitions[-1].reason
        )

    def test_relapse_resets_the_grace_counter(self):
        monitor = HealthMonitor(HealthPolicy(recovery_grace=2))
        monitor.update(breaker_open=True)
        monitor.update()  # calm 1 of 2
        monitor.update(breaker_open=True)  # relapse
        monitor.update()  # calm 1 of 2 again
        assert monitor.update() == HEALTHY

    def test_breaker_trip_during_shedding_grace_rearms_escalation(self):
        monitor = HealthMonitor(HealthPolicy(recovery_grace=3))
        monitor.update(queue_fraction=1.0)
        assert monitor.state == SHEDDING
        monitor.update()  # calm 1 of 3
        monitor.update()  # calm 2 of 3
        # A fresh breaker trip arrives while the step-down is pending.
        # It calls for DEGRADED (below SHEDDING), but it is a *new*
        # degradation signal, not a clean evaluation: the grace counter
        # re-arms instead of riding the stale countdown.
        assert monitor.update(breaker_open=True) == SHEDDING
        assert monitor.update() == SHEDDING  # calm 1 of 3 again
        assert monitor.update() == SHEDDING  # calm 2 of 3
        assert monitor.update() == DEGRADED  # calm 3: one level down
        for _ in range(2):
            monitor.update()
        assert monitor.update() == HEALTHY

    def test_sustained_lower_severity_still_steps_down(self):
        # Hysteresis must not deadlock: a *sustained* (non-escalating)
        # lower-severity signal counts as progress toward step-down.
        monitor = HealthMonitor(HealthPolicy(recovery_grace=2))
        monitor.update(queue_fraction=1.0)
        assert monitor.state == SHEDDING
        monitor.update(breaker_open=True)  # not escalating: calm 1 of 2
        assert monitor.state == SHEDDING
        assert monitor.update(breaker_open=True) == DEGRADED  # calm 2
        # ...and DEGRADED is where it stays while the breaker is open.
        assert monitor.update(breaker_open=True) == DEGRADED

    def test_snapshot_exposes_the_machine_state(self):
        monitor = HealthMonitor(HealthPolicy(recovery_grace=2))
        monitor.update(queue_fraction=0.95)
        monitor.update()
        snap = monitor.snapshot()
        assert snap["state"] == SHEDDING
        assert snap["steps"] == 2
        assert snap["calm"] == 1
        assert snap["n_transitions"] == 1
        assert "queue" in snap["last_reason"]
        assert snap["signals"]["queue_fraction"] == 0.0
        assert snap["signals"]["target"] == HEALTHY

    def test_reset_records_a_transition(self):
        monitor = HealthMonitor()
        monitor.update(queue_fraction=1.0)
        monitor.reset()
        assert monitor.state == HEALTHY
        assert monitor.transitions[-1].reason == "operator reset"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(recovery_grace=0)


class TestDeadlinePropagation:
    def test_expired_deadline_abandons_retries(self, world):
        """A slow failing primary stops retrying once the budget is spent."""
        clock = FakeClock()
        service = make_service(
            world,
            policy=ServingPolicy(
                max_retries=3, breaker_failure_threshold=50, deadline_s=0.1
            ),
            clock=clock,
        )

        def slow_and_broken(user, candidates, rng):
            clock.now += 0.06
            raise RuntimeError("model server timeout")

        service.score_candidates = slow_and_broken
        page, cvr = service.serve_page(0, np.arange(30), np.random.default_rng(0))
        assert len(page) == 8
        stats = service.stats
        assert stats.deadline_fallbacks == 1
        # One retry fit inside the budget (0.06s elapsed), the second
        # check saw 0.12s > 0.1s and bailed to the fallback chain.
        assert stats.retries == 1
        assert stats.last_source == "ctr_provider"

    def test_per_request_deadline_overrides_policy(self, world):
        clock = FakeClock()
        service = make_service(
            world,
            policy=ServingPolicy(
                max_retries=3, breaker_failure_threshold=50, deadline_s=10.0
            ),
            clock=clock,
        )

        def slow_and_broken(user, candidates, rng):
            clock.now += 0.06
            raise RuntimeError("boom")

        service.score_candidates = slow_and_broken
        service.serve_page(0, np.arange(20), np.random.default_rng(0), deadline_s=0.05)
        assert service.stats.deadline_fallbacks == 1
        assert service.stats.retries == 0  # first failure already over budget

    def test_no_deadline_retries_to_policy_limit(self, world):
        clock = FakeClock()
        service = make_service(
            world,
            policy=ServingPolicy(max_retries=3, breaker_failure_threshold=50),
            clock=clock,
        )

        def broken(user, candidates, rng):
            clock.now += 100.0  # a deadline would have long expired
            raise RuntimeError("boom")

        service.score_candidates = broken
        service.serve_page(0, np.arange(20), np.random.default_rng(0))
        assert service.stats.retries == 3
        assert service.stats.deadline_fallbacks == 0


class TestPredictionSanitizer:
    def test_nan_scores_rejected_and_fallback_serves(self, world):
        service = make_service(
            world,
            policy=ServingPolicy(max_retries=0, breaker_failure_threshold=50),
        )

        def poisoned(user, candidates, rng):
            n = len(candidates)
            return np.full(n, np.nan), np.full(n, 0.5)

        service.score_candidates = poisoned
        page, cvr = service.serve_page(0, np.arange(30), np.random.default_rng(0))
        assert len(page) == 8
        assert np.all(np.isfinite(cvr))
        assert service.stats.sanitizer_rejections == 1
        assert service.stats.last_source == "ctr_provider"

    def test_out_of_range_cvr_rejected(self, world):
        service = make_service(
            world,
            policy=ServingPolicy(max_retries=0, breaker_failure_threshold=50),
        )

        def overconfident(user, candidates, rng):
            n = len(candidates)
            return np.full(n, 0.5), np.full(n, 1.5)

        service.score_candidates = overconfident
        _, cvr = service.serve_page(0, np.arange(30), np.random.default_rng(0))
        assert np.all((cvr >= 0.0) & (cvr <= 1.0))
        assert service.stats.sanitizer_rejections == 1
        assert service.stats.primary == 0

    def test_sanitizer_rejections_open_the_breaker(self, world):
        service = make_service(
            world,
            policy=ServingPolicy(max_retries=0, breaker_failure_threshold=2),
        )

        def poisoned(user, candidates, rng):
            n = len(candidates)
            return np.full(n, np.nan), np.full(n, 0.5)

        service.score_candidates = poisoned
        rng = np.random.default_rng(0)
        service.serve_page(0, np.arange(20), rng)
        service.serve_page(1, np.arange(20), rng)
        assert service.breaker.state == "open"
        # The breaker now short-circuits; no further sanitizer work.
        service.serve_page(2, np.arange(20), rng)
        assert service.stats.sanitizer_rejections == 2
        assert service.stats.breaker_short_circuits == 1

    def test_served_page_output_always_in_range(self, world):
        """Whatever the fallback produced, callers see finite CVR in [0,1]."""
        service = make_service(world)
        with ChaosScoring(service, failure_rate=1.0, seed=0):
            for request in range(10):
                _, cvr = service.serve_page(
                    request % 5, np.arange(20), np.random.default_rng(request)
                )
                assert np.all(np.isfinite(cvr))
                assert np.all((cvr >= 0.0) & (cvr <= 1.0))


class TestAdmissionControl:
    def test_full_queue_sheds_request(self, world):
        # shed_stride=1 keeps the stride gate open, so the rejection
        # comes from the queue itself rather than the SHEDDING pattern.
        service = make_service(
            world, admission=AdmissionPolicy(max_queue_depth=4, shed_stride=1)
        )
        service.admission.occupy(4)
        with pytest.raises(RequestShedError, match="queue full"):
            service.serve_page(0, np.arange(20), np.random.default_rng(0))
        assert service.stats.shed == 1
        service.admission.drain()
        page, _ = service.serve_page(0, np.arange(20), np.random.default_rng(0))
        assert len(page) == 8

    def test_shedding_state_admits_every_stride_th_request(self, world):
        service = make_service(
            world,
            admission=AdmissionPolicy(max_queue_depth=10, shed_stride=2),
            health=HealthPolicy(recovery_grace=100),
        )
        service.admission.occupy(9)  # 90% full -> SHEDDING
        rng = np.random.default_rng(0)
        outcomes = []
        for request in range(10):
            try:
                service.serve_page(request % 5, np.arange(20), rng)
                outcomes.append("served")
            except RequestShedError:
                outcomes.append("shed")
        assert service.health.state == SHEDDING
        assert outcomes == ["shed", "served"] * 5
        assert service.stats.shed == 5
        # The admitted half kept flowing: breaker probes can recover us.
        assert service.stats.primary == 5

    def test_shed_requests_never_touch_the_scorer(self, world):
        service = make_service(
            world, admission=AdmissionPolicy(max_queue_depth=2)
        )
        service.admission.occupy(2)
        calls = []
        original = service.score_candidates

        def counting(user, candidates, rng):
            calls.append(user)
            return original(user, candidates, rng)

        service.score_candidates = counting
        with pytest.raises(RequestShedError):
            service.serve_page(0, np.arange(20), np.random.default_rng(0))
        assert calls == []

    def test_empty_candidates_still_invalid(self, world):
        service = make_service(world)
        with pytest.raises(ValueError, match="empty candidate"):
            service.serve_page(0, np.array([], dtype=int), np.random.default_rng(0))
        assert service.stats.shed == 0


def adversarial_sentinel(min_samples=50):
    """A sentinel whose reference expects probabilities near 1.0.

    Any realistically-calibrated model trips it within a couple of
    pages -- a controlled stand-in for a propensity distribution shift.
    """
    edges = np.linspace(0.0, 1.0, 11)
    top_heavy = np.array([0.0] * 9 + [1000.0])
    reference = DriftReference(
        dense={},
        propensity=ReferenceDistribution("o_hat", edges, top_heavy),
        cvr=ReferenceDistribution("cvr_hat", edges, top_heavy),
    )
    return DriftSentinel(reference, DriftThresholds(min_samples=min_samples))


class TestDriftDrivenHealth:
    def test_drift_trip_degrades_service(self, world):
        service = make_service(world, sentinel=adversarial_sentinel())
        rng = np.random.default_rng(0)
        for request in range(4):
            service.serve_page(request % 5, np.arange(30), rng)
        assert service.sentinel.tripped
        assert service.health.state == DEGRADED
        assert service.breaker.state == "closed"  # drift alone did this
        reasons = [t.reason for t in service.health.transitions]
        assert any("drift" in reason for reason in reasons)

    def test_fallback_pages_do_not_feed_the_sentinel(self, world):
        service = make_service(
            world,
            sentinel=adversarial_sentinel(),
            policy=ServingPolicy(max_retries=0, breaker_failure_threshold=1),
        )
        with ChaosScoring(service, failure_rate=1.0, seed=0):
            for request in range(5):
                service.serve_page(request % 5, np.arange(30), np.random.default_rng(request))
        # Nothing came off the primary path, so the monitors saw nothing.
        assert service.sentinel.monitors["propensity"].n_observed == 0


class TestRecoveryDrill:
    def run_drill(self, world):
        clock = FakeClock()
        service = make_service(
            world,
            policy=ServingPolicy(max_retries=0, breaker_failure_threshold=3),
            breaker=CircuitBreaker(
                failure_threshold=3, recovery_time=30.0, clock=clock
            ),
            admission=AdmissionPolicy(max_queue_depth=10, shed_stride=2),
            health=HealthPolicy(recovery_grace=2),
            clock=clock,
        )
        rng = np.random.default_rng(7)
        candidates = np.arange(30)
        episode = []

        def serve(n, phase):
            for request in range(n):
                try:
                    service.serve_page(request % 5, candidates, rng)
                    episode.append((phase, "served", service.health.state))
                except RequestShedError:
                    episode.append((phase, "shed", service.health.state))

        # Phase 1: clean traffic, service is HEALTHY.
        serve(5, "clean")
        assert service.health.state == HEALTHY
        # Phase 2: total scorer outage opens the breaker -> DEGRADED.
        chaos = ChaosScoring(service, failure_rate=1.0, seed=3)
        chaos.install()
        serve(5, "outage")
        assert service.breaker.state == "open"
        assert service.health.state == DEGRADED
        # Phase 3: backlog builds on top of the outage -> SHEDDING.
        service.admission.occupy(9)
        serve(6, "backlog")
        assert service.health.state == SHEDDING
        assert service.stats.shed > 0
        # Phase 4: the incident ends -- scorer restored, backlog drained,
        # breaker cool-down elapses -- and the service steps back down.
        chaos.uninstall()
        service.admission.drain()
        clock.now += 31.0
        serve(6, "recovery")
        assert service.health.state == HEALTHY
        assert service.breaker.state == "closed"
        return episode, service

    def test_full_health_cycle_and_recovery(self, world):
        episode, service = self.run_drill(world)
        states = [t.to_state for t in service.health.transitions]
        assert states == [DEGRADED, SHEDDING, DEGRADED, HEALTHY]
        # Shedding happened only while SHEDDING, and the stride admitted
        # some traffic throughout (the probe path stayed open).
        assert all(state == SHEDDING for phase, kind, state in episode if kind == "shed")
        backlog = [kind for phase, kind, _ in episode if phase == "backlog"]
        assert "served" in backlog and "shed" in backlog

    def test_drill_is_bit_for_bit_reproducible(self, world):
        first_episode, first = self.run_drill(world)
        second_episode, second = self.run_drill(world)
        assert first_episode == second_episode
        assert first.stats.by_source == second.stats.by_source
        assert (
            first.stats.shed,
            first.stats.deadline_fallbacks,
            first.stats.sanitizer_rejections,
        ) == (
            second.stats.shed,
            second.stats.deadline_fallbacks,
            second.stats.sanitizer_rejections,
        )
        assert [
            (t.step, t.from_state, t.to_state) for t in first.health.transitions
        ] == [
            (t.step, t.from_state, t.to_state) for t in second.health.transitions
        ]
