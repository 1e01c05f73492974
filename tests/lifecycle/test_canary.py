"""CanaryRollout: deterministic splits, arm isolation, automatic demotion."""

import numpy as np
import pytest

from repro.lifecycle import (
    CANDIDATE_ARM,
    CHAMPION_ARM,
    DEMOTE,
    PENDING,
    PROMOTE,
    CanaryPolicy,
    CanaryRollout,
)
from repro.reliability import ChaosScoring
from repro.reliability.config import ServingPolicy
from repro.reliability.drift import DriftReference, DriftSentinel, DriftThresholds
from repro.simulation.serving import RankingService
from repro.utils.hashing import stable_bucket, stable_fraction, stable_hash64

from tests.lifecycle.conftest import perturb

pytestmark = pytest.mark.lifecycle


def make_rollout(world, trained_model, clone_model, policy=None, sentinel=None):
    _, _, scenario = world
    champion = RankingService(trained_model, scenario, page_size=6)
    candidate = RankingService(
        clone_model(), scenario, page_size=6, sentinel=sentinel
    )
    return CanaryRollout(
        champion,
        candidate,
        candidate_version="v0002",
        policy=policy or CanaryPolicy(traffic_fraction=0.3, min_requests=20),
    )


def drive(rollout, n_pages, seed=0, n_users=40, n_items=50):
    rng = np.random.default_rng(seed)
    for _ in range(n_pages):
        user = int(rng.integers(0, n_users))
        candidates = rng.choice(n_items, size=12, replace=False)
        rollout.serve_page(user, candidates, rng)


class TestStableHashing:
    def test_hash_is_process_independent(self):
        # pinned values: the split must survive interpreter restarts
        assert stable_hash64("user-1", salt=0) == stable_hash64("user-1", salt=0)
        assert stable_hash64(7, salt=0) != stable_hash64(7, salt=1)
        assert 0.0 <= stable_fraction(123, salt=9) < 1.0

    def test_bucket_distribution_is_roughly_uniform(self):
        buckets = [stable_bucket(u, 4, salt=0) for u in range(4000)]
        counts = np.bincount(buckets, minlength=4)
        assert counts.min() > 800  # no starved bucket

    def test_bucket_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            stable_bucket(1, 0)


class TestRouting:
    def test_route_is_deterministic_and_salt_sensitive(
        self, world, trained_model, clone_model
    ):
        a = make_rollout(world, trained_model, clone_model)
        b = make_rollout(world, trained_model, clone_model)
        assert [a.route(u) for u in range(40)] == [b.route(u) for u in range(40)]
        salted = make_rollout(
            world,
            trained_model,
            clone_model,
            policy=CanaryPolicy(traffic_fraction=0.3, min_requests=20, salt=99),
        )
        assert [a.route(u) for u in range(200)] != [
            salted.route(u) for u in range(200)
        ]

    def test_traffic_fraction_controls_the_split(
        self, world, trained_model, clone_model
    ):
        rollout = make_rollout(
            world,
            trained_model,
            clone_model,
            policy=CanaryPolicy(traffic_fraction=0.25, min_requests=1),
        )
        routes = [rollout.route(u) for u in range(10_000)]
        fraction = routes.count(CANDIDATE_ARM) / len(routes)
        assert 0.2 < fraction < 0.3

    def test_requests_land_on_the_routed_arm(
        self, world, trained_model, clone_model
    ):
        rollout = make_rollout(world, trained_model, clone_model)
        drive(rollout, 80)
        total = rollout.requests[CHAMPION_ARM] + rollout.requests[CANDIDATE_ARM]
        assert total == 80
        assert rollout.arms[CHAMPION_ARM].stats.requests == rollout.requests[
            CHAMPION_ARM
        ]
        assert rollout.arms[CANDIDATE_ARM].stats.requests == rollout.requests[
            CANDIDATE_ARM
        ]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CanaryPolicy(traffic_fraction=0.0)
        with pytest.raises(ValueError):
            CanaryPolicy(traffic_fraction=1.0)
        with pytest.raises(ValueError):
            CanaryPolicy(min_requests=0)


class TestVerdict:
    def test_pending_until_min_requests_then_promote(
        self, world, trained_model, clone_model
    ):
        rollout = make_rollout(world, trained_model, clone_model)
        verdict, reason = rollout.verdict()
        assert verdict == PENDING
        drive(rollout, 150)
        assert rollout.requests[CANDIDATE_ARM] >= 20
        verdict, reason = rollout.verdict()
        assert verdict == PROMOTE
        assert "clean" in reason

    def test_concluding_a_pending_canary_demotes(
        self, world, trained_model, clone_model
    ):
        rollout = make_rollout(world, trained_model, clone_model)
        drive(rollout, 3)
        verdict, reason = rollout.conclude()
        assert verdict == DEMOTE
        assert "insufficient" in reason
        # conclusion is frozen: more traffic cannot flip it
        drive(rollout, 150)
        assert rollout.conclude() == (verdict, reason)

    def test_demoted_rollout_routes_everything_to_the_champion(
        self, world, trained_model, clone_model
    ):
        rollout = make_rollout(world, trained_model, clone_model)
        rollout.conclude()  # no traffic -> demote
        assert all(rollout.route(u) == CHAMPION_ARM for u in range(200))
        before = rollout.arms[CANDIDATE_ARM].stats.requests
        drive(rollout, 50)
        assert rollout.arms[CANDIDATE_ARM].stats.requests == before

    def test_candidate_breaker_trip_demotes_and_spares_the_champion(
        self, world, trained_model, clone_model
    ):
        _, _, scenario = world
        champion = RankingService(trained_model, scenario, page_size=6)
        candidate_service = RankingService(
            clone_model(),
            scenario,
            page_size=6,
            policy=ServingPolicy(max_retries=0, breaker_failure_threshold=2),
        )
        rollout = CanaryRollout(
            champion,
            candidate_service,
            candidate_version="v0002",
            policy=CanaryPolicy(traffic_fraction=0.5, min_requests=10),
        )
        with ChaosScoring(candidate_service, failure_rate=1.0, seed=0):
            drive(rollout, 60)
        verdict, reason = rollout.verdict()
        assert verdict == DEMOTE
        assert "breaker" in reason
        # isolation: the champion arm never saw a failure
        assert champion.breaker.times_opened == 0
        assert champion.stats.degraded_fraction == 0.0

    def test_drifting_candidate_trips_the_sentinel_and_demotes(
        self, world, trained_model, clone_model
    ):
        train, _, _ = world
        reference = DriftReference.capture(trained_model, train, seed=0)
        sentinel = DriftSentinel(
            reference, thresholds=DriftThresholds(min_samples=20)
        )
        drifted = perturb(clone_model(), 1.5, seed=5)
        _, _, scenario = world
        champion = RankingService(trained_model, scenario, page_size=6)
        candidate = RankingService(
            drifted, scenario, page_size=6, sentinel=sentinel
        )
        rollout = CanaryRollout(
            champion,
            candidate,
            candidate_version="v0002",
            policy=CanaryPolicy(traffic_fraction=0.5, min_requests=500),
        )
        drive(rollout, 120)
        verdict, reason = rollout.verdict()
        assert verdict == DEMOTE
        assert "drift" in reason

    def test_arm_health_reports_both_arms(self, world, trained_model, clone_model):
        rollout = make_rollout(world, trained_model, clone_model)
        drive(rollout, 40)
        health = rollout.arm_health()
        assert set(health) == {CHAMPION_ARM, CANDIDATE_ARM}
        for arm in health.values():
            assert arm["health"]["state"] == "healthy"
            assert arm["breaker"]["state"] == "closed"
            assert arm["routed_requests"] >= 0
            assert "queue_depth" in arm
