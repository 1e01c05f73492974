"""ServingFleet routing, hedging, degradation, and registry serving.

The fleet contract: a page request sent to an N-replica fleet is
routed by power-of-two-choices to an eligible replica, hedged once
against a *different* replica when the first refuses or degrades, and
answered by the model-free popularity prior only when every replica is
down -- with the whole episode seeded and reproducible.
"""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.reliability import CircuitBreaker, FleetPolicy
from repro.reliability.errors import RequestShedError
from repro.reliability.health import CRITICAL, DEGRADED, HEALTHY
from repro.simulation import FLEET_POPULARITY, ServingFleet
from repro.simulation.serving import RankingService

pytestmark = [pytest.mark.robustness, pytest.mark.fleet]

MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)


@pytest.fixture(scope="module")
def world():
    train, _, scenario = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=1500, n_test=200
    )
    return train, scenario


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_fleet(world, n_replicas=4, policy=None, seed=7, clock=None, **kwargs):
    train, scenario = world
    clock = clock or FakeClock()
    services = [
        RankingService(
            build_model("dcmt", train.schema, MODEL_CONFIG),
            scenario,
            page_size=8,
            clock=clock,
            **kwargs,
        )
        for _ in range(n_replicas)
    ]
    return ServingFleet(services, policy=policy, seed=seed, clock=clock), clock


def drive(fleet, n, seed=3, deadline_s=None):
    """Seeded traffic; returns (served, shed) counts."""
    rng = np.random.default_rng(seed)
    served = shed = 0
    for _ in range(n):
        user = int(rng.integers(0, 40))
        candidates = rng.choice(50, size=12, replace=False)
        try:
            fleet.serve_page(user, candidates, rng, deadline_s=deadline_s)
            served += 1
        except RequestShedError:
            shed += 1
    return served, shed


def break_scorer(service):
    """Shadow the replica's scorer with an all-NaN one (sanitizer bait)."""

    def nan_scores(user, candidates, rng):
        n = len(candidates)
        return np.full(n, np.nan), np.full(n, np.nan)

    service.score_candidates = nan_scores


class TestRouting:
    def test_traffic_spreads_across_replicas(self, world):
        fleet, _ = make_fleet(world)
        drive(fleet, 80)
        assert set(fleet.stats.by_replica) == {
            "replica-0", "replica-1", "replica-2", "replica-3"
        }
        assert fleet.stats.by_source == {"primary": 80}

    def test_dead_replica_receives_no_traffic(self, world):
        fleet, _ = make_fleet(world)
        fleet.kill_replica("replica-1")
        served, shed = drive(fleet, 60)
        assert (served, shed) == (60, 0)
        assert "replica-1" not in fleet.stats.by_replica
        # 3 of 4 alive meets the default 0.75 quorum: still HEALTHY.
        assert fleet.health.state == HEALTHY

    def test_breaker_open_replica_is_skipped(self, world):
        fleet, _ = make_fleet(world)
        sick = fleet.replicas[2].service
        for _ in range(sick.breaker.failure_threshold):
            sick.breaker.record_failure()
        assert sick.breaker.state == CircuitBreaker.OPEN
        drive(fleet, 60)
        assert "replica-2" not in fleet.stats.by_replica
        assert fleet.stats.by_source == {"primary": 60}

    def test_shedding_replica_is_skipped(self, world):
        fleet, _ = make_fleet(world)
        fleet.replicas[0].service.health.update(queue_fraction=1.0)
        drive(fleet, 60)
        assert "replica-0" not in fleet.stats.by_replica

    def test_p2c_prefers_shallower_queue(self, world):
        fleet, _ = make_fleet(world, n_replicas=2)
        # Pin a deep backlog on replica-0: with two replicas, every p2c
        # draw compares both, so the empty queue always wins.
        fleet.replicas[0].service.admission.occupy(10)
        drive(fleet, 40)
        assert fleet.stats.by_replica == {"replica-1": 40}

    def test_unknown_replica_name_raises(self, world):
        fleet, _ = make_fleet(world, n_replicas=2)
        with pytest.raises(KeyError):
            fleet.kill_replica("replica-9")


class TestHedging:
    def test_hedge_goes_to_a_different_replica(self, world):
        fleet, _ = make_fleet(world, n_replicas=3)
        for replica in fleet.replicas:
            break_scorer(replica.service)
        drive(fleet, 40)
        hedged = [e for e in fleet.transcript if e.hedged]
        assert hedged, "NaN replicas must trigger hedging"
        for event in hedged:
            assert event.hedge != event.primary

    def test_hedge_recovers_a_model_page(self, world):
        # 4 replicas: one opening its breaker keeps quorum at 3/4, so
        # hedging (not fleet shedding) is what absorbs the NaN replica.
        fleet, _ = make_fleet(world, n_replicas=4)
        break_scorer(fleet.replicas[0].service)
        served, _ = drive(fleet, 60)
        # Requests that landed on the NaN replica were hedged onto a
        # healthy one; every page is still ranked by a real model.
        assert served == 60
        assert fleet.stats.hedges > 0
        assert fleet.stats.hedge_wins == fleet.stats.hedges
        assert fleet.stats.by_source.get("primary", 0) == 60

    def test_hedge_disabled_by_policy(self, world):
        fleet, _ = make_fleet(
            world, n_replicas=3, policy=FleetPolicy(hedge_retries=0)
        )
        break_scorer(fleet.replicas[0].service)
        drive(fleet, 60)
        assert fleet.stats.hedges == 0
        # The NaN replica's own fallback chain serves its share.
        assert fleet.stats.by_source.get("popularity", 0) > 0

    def test_hedge_respects_min_remaining_budget(self, world):
        fleet, clock = make_fleet(
            world,
            n_replicas=3,
            policy=FleetPolicy(hedge_min_remaining_s=10.0),
        )
        break_scorer(fleet.replicas[0].service)
        drive(fleet, 60, deadline_s=1.0)
        # Remaining budget (1s) never exceeds the 10s floor: no hedges.
        assert fleet.stats.hedges == 0


class TestRetryJitterDeterminism:
    """Satellite: seeded hedging is bit-reproducible."""

    def build_and_drive(self, world, seed):
        fleet, _ = make_fleet(world, n_replicas=3, seed=seed)
        break_scorer(fleet.replicas[0].service)
        break_scorer(fleet.replicas[1].service)
        drive(fleet, 60)
        return fleet

    def test_same_seed_same_retry_schedule(self, world):
        a = self.build_and_drive(world, seed=11)
        b = self.build_and_drive(world, seed=11)
        assert a.transcript_lines() == b.transcript_lines()
        jitters_a = [e.hedge_jitter for e in a.transcript if e.hedged]
        assert jitters_a, "drill must exercise hedging"
        assert jitters_a == [e.hedge_jitter for e in b.transcript if e.hedged]

    def test_different_seed_different_schedule(self, world):
        a = self.build_and_drive(world, seed=11)
        b = self.build_and_drive(world, seed=12)
        assert a.transcript_lines() != b.transcript_lines()


class TestGracefulDegradation:
    def test_lost_quorum_degrades_and_sheds_a_slice(self, world):
        fleet, _ = make_fleet(
            world, policy=FleetPolicy(degraded_shed_stride=4)
        )
        fleet.kill_replica(0)
        fleet.kill_replica(1)
        served, shed = drive(fleet, 80)
        assert fleet.health.state == DEGRADED
        # Every 4th request sheds at the fleet door; the rest are
        # served by the surviving replicas' models.
        assert shed == 20
        assert fleet.stats.fleet_shed == 20
        assert fleet.stats.by_source.get("primary", 0) == served

    def test_total_loss_is_critical_popularity_not_silence(self, world):
        fleet, _ = make_fleet(
            world, n_replicas=2, policy=FleetPolicy(critical_shed_stride=2)
        )
        for i in range(2):
            fleet.kill_replica(i)
        served, shed = drive(fleet, 40)
        assert fleet.health.state == CRITICAL
        assert served == 20 and shed == 20
        # The admitted slice ships pages from the popularity prior.
        assert fleet.stats.by_source == {FLEET_POPULARITY: 20}
        assert fleet.stats.fleet_fallback_pages == 20

    def test_critical_pages_are_sane(self, world):
        fleet, _ = make_fleet(world, n_replicas=2)
        fleet.kill_replica(0)
        fleet.kill_replica(1)
        rng = np.random.default_rng(0)
        candidates = rng.choice(50, size=12, replace=False)
        page = None
        for _ in range(4):  # step past the critical shed stride
            try:
                page, cvr = fleet.serve_page(3, candidates, rng)
                break
            except RequestShedError:
                continue
        assert page is not None
        assert len(page) == fleet.page_size
        assert np.all((cvr >= 0.0) & (cvr <= 1.0))

    def test_revive_recovers_to_healthy(self, world):
        fleet, _ = make_fleet(
            world, policy=FleetPolicy(recovery_grace=3)
        )
        fleet.kill_replica(0)
        fleet.kill_replica(1)
        drive(fleet, 20)
        assert fleet.health.state == DEGRADED
        fleet.revive_replica(0)
        fleet.revive_replica(1)
        drive(fleet, 20)
        assert fleet.health.state == HEALTHY
        n_shed_after = fleet.stats.fleet_shed
        drive(fleet, 20)
        assert fleet.stats.fleet_shed == n_shed_after


class TestFleetHealthMonitor:
    def make(self, grace=2):
        from repro.reliability import FleetHealthMonitor

        return FleetHealthMonitor(
            FleetPolicy(degraded_quorum=0.75, recovery_grace=grace)
        )

    def test_quorum_ladder(self):
        monitor = self.make()
        assert monitor.update(4, 4) == HEALTHY
        assert monitor.update(3, 4) == HEALTHY  # 0.75 meets the quorum
        assert monitor.update(2, 4) == DEGRADED
        assert monitor.update(0, 4) == CRITICAL

    def test_recovery_steps_down_one_level_per_grace(self):
        monitor = self.make(grace=2)
        monitor.update(0, 4)
        assert monitor.state == CRITICAL
        assert monitor.update(4, 4) == CRITICAL  # clean eval 1 of 2
        assert monitor.update(4, 4) == DEGRADED  # stepped down one level
        assert monitor.update(4, 4) == DEGRADED
        assert monitor.update(4, 4) == HEALTHY

    def test_fresh_escalation_rearms_the_grace_counter(self):
        monitor = self.make(grace=2)
        monitor.update(0, 4)
        monitor.update(4, 4)  # clean eval 1 of 2
        assert monitor.update(2, 4) == CRITICAL  # fresh DEGRADED signal
        assert monitor.update(4, 4) == CRITICAL  # countdown restarted
        assert monitor.update(4, 4) == DEGRADED

    def test_snapshot_matches_health_monitor_shape(self):
        monitor = self.make()
        monitor.update(2, 4)
        snap = monitor.snapshot()
        assert {
            "state", "steps", "calm", "n_transitions", "last_reason",
            "signals",
        } <= set(snap)
        assert snap["state"] == DEGRADED


class TestFromRegistry:
    def test_replicas_serve_frozen_champion_copies(self, world, tmp_path):
        from repro.lifecycle import ModelRegistry

        train, scenario = world
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        registry = ModelRegistry(tmp_path / "registry")
        entry = registry.publish(model, note="fleet champion")
        registry.promote(entry.version, "bootstrap")

        def factory():
            return build_model("dcmt", train.schema, MODEL_CONFIG)

        fleet = ServingFleet.from_registry(
            registry, factory, scenario, 3, seed=1, page_size=8
        )
        assert fleet.version == entry.version
        models = [r.service.model for r in fleet.replicas]
        assert len({id(m) for m in models}) == 3
        assert all(m is not model for m in models)

        # Same frozen parameters -> identical predictions; corrupting
        # the live training object afterwards changes nothing.
        rng = np.random.default_rng(0)
        candidates = rng.choice(50, size=12, replace=False)
        pages = [
            r.service.serve_page(5, candidates, np.random.default_rng(1))
            for r in fleet.replicas
        ]
        for page, cvr in pages[1:]:
            np.testing.assert_array_equal(page, pages[0][0])
            np.testing.assert_allclose(cvr, pages[0][1])
        model.parameters()[0].data[...] = 123.0
        page_after, _ = fleet.replicas[0].service.serve_page(
            5, candidates, np.random.default_rng(1)
        )
        np.testing.assert_array_equal(page_after, pages[0][0])

    def test_no_champion_requires_explicit_version(self, world, tmp_path):
        from repro.lifecycle import ModelRegistry

        train, scenario = world
        registry = ModelRegistry(tmp_path / "registry")

        def factory():
            return build_model("dcmt", train.schema, MODEL_CONFIG)

        with pytest.raises(ValueError, match="no champion"):
            ServingFleet.from_registry(registry, factory, scenario, 2)


class TestObservability:
    def test_snapshot_shape(self, world):
        fleet, _ = make_fleet(world)
        drive(fleet, 30)
        snap = fleet.snapshot()
        assert snap["fleet_health"]["state"] == HEALTHY
        assert snap["requests"] == 30
        assert set(snap["replicas"]) == {f"replica-{i}" for i in range(4)}
        for replica_snap in snap["replicas"].values():
            assert replica_snap["alive"] is True
            assert "breaker" in replica_snap
            assert "latency" in replica_snap
        assert set(snap["latency"]) == {"n", "p50", "p95", "p99"}
        # Duck-type parity with RankingService for dashboards.
        assert fleet.health_snapshot() == snap

    def test_fleet_latency_percentiles_use_injected_clock(self, world):
        fleet, clock = make_fleet(world, n_replicas=2)
        base = fleet.replicas[0].service.score_candidates

        def slow(user, candidates, rng):
            clock.now += 0.2
            return base(user, candidates, rng)

        for replica in fleet.replicas:
            replica.service.score_candidates = slow
        drive(fleet, 20)
        summary = fleet.stats.latency_summary()
        assert summary["n"] == 20
        assert summary["p50"] == pytest.approx(0.2)
        assert summary["p99"] == pytest.approx(0.2)

    def test_transcript_covers_every_request(self, world):
        fleet, _ = make_fleet(world)
        fleet.kill_replica(0)
        fleet.kill_replica(1)
        served, shed = drive(fleet, 40)
        assert len(fleet.transcript) == 40
        outcomes = {e.outcome for e in fleet.transcript}
        assert outcomes == {"served", "shed"}
        assert sum(e.outcome == "served" for e in fleet.transcript) == served


class TestValidation:
    def test_empty_fleet_rejected(self, world):
        with pytest.raises(ValueError, match="at least one replica"):
            ServingFleet([])

    def test_duplicate_names_rejected(self, world):
        train, scenario = world
        services = [
            RankingService(
                build_model("dcmt", train.schema, MODEL_CONFIG),
                scenario,
                page_size=8,
            )
            for _ in range(2)
        ]
        with pytest.raises(ValueError, match="unique"):
            ServingFleet(services, names=["a", "a"])

    def test_empty_candidates_rejected(self, world):
        fleet, _ = make_fleet(world, n_replicas=2)
        with pytest.raises(ValueError, match="empty candidate"):
            fleet.serve_page(0, np.array([], dtype=int), np.random.default_rng(0))
