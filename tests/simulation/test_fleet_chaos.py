"""Replica-loss chaos drills: the fleet survives what kills a service.

The acceptance drill: 4 replicas, a seeded schedule that kills one
mid-run, and the fleet still serves >= 99% of in-deadline requests
from a real model (never the popularity fallback), with a transcript
that is bit-identical across two same-seed runs.  A single-replica
baseline under the same schedule demonstrably drops requests.
"""

import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.reliability import (
    FleetFaultSpec,
    FleetPolicy,
    ReplicaFault,
    build_fleet_fault_schedule,
)
from repro.reliability.faults import (
    REPLICA_KILL,
    REPLICA_NAN,
    REPLICA_SLOWDOWN,
)
from repro.simulation import FleetChaosDrill, ServingFleet
from repro.simulation.serving import RankingService

pytestmark = [pytest.mark.robustness, pytest.mark.fleet]

MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)

N_REQUESTS = 300
DEADLINE_S = 1.0


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


def make_fleet(world, n_replicas, seed=7):
    train, scenario = world
    clock = FakeClock()
    services = [
        RankingService(
            build_model("dcmt", train.schema, MODEL_CONFIG),
            scenario,
            page_size=8,
            clock=clock,
        )
        for _ in range(n_replicas)
    ]
    fleet = ServingFleet(
        services,
        policy=FleetPolicy(deadline_s=DEADLINE_S),
        seed=seed,
        clock=clock,
    )
    return fleet, clock


def kill_schedule(n_replicas):
    schedule = build_fleet_fault_schedule(
        FleetFaultSpec(n_kills=1), n_replicas, N_REQUESTS, seed=5
    )
    assert [f.kind for f in schedule] == [REPLICA_KILL]
    return schedule


class TestKillAcceptance:
    def run_drill(self, world, n_replicas, schedule=None):
        fleet, clock = make_fleet(world, n_replicas)
        if schedule is None:
            schedule = kill_schedule(n_replicas)
        drill = FleetChaosDrill(fleet, schedule, clock=clock)
        report = drill.run(N_REQUESTS, seed=11, deadline_s=DEADLINE_S)
        return fleet, report

    def test_one_dead_replica_of_four_is_survivable(self, world):
        fleet, report = self.run_drill(world, 4)
        assert report.requests == N_REQUESTS
        # >= 99% of in-deadline requests answered by a real model --
        # here it is all of them: routing skips the dead replica.
        assert report.model_served_fraction >= 0.99
        assert report.by_source.get("fleet_popularity", 0) == 0
        assert report.by_source.get("popularity", 0) == 0
        assert report.shed == 0
        # The kill really happened and really took the replica out.
        assert any("fault kill" in line for line in report.fault_log)
        dead = [r.name for r in fleet.replicas if not r.alive]
        assert len(dead) == 1

    def test_transcript_bit_identical_across_same_seed_runs(self, world):
        schedule = kill_schedule(4)
        _, first = self.run_drill(world, 4, schedule)
        _, second = self.run_drill(world, 4, schedule)
        assert first.transcript == second.transcript
        assert first.summary() == second.summary()

    def test_different_traffic_seed_differs(self, world):
        schedule = kill_schedule(4)
        fleet_a, clock_a = make_fleet(world, 4)
        fleet_b, clock_b = make_fleet(world, 4)
        a = FleetChaosDrill(fleet_a, schedule, clock=clock_a).run(
            N_REQUESTS, seed=11, deadline_s=DEADLINE_S
        )
        b = FleetChaosDrill(fleet_b, schedule, clock=clock_b).run(
            N_REQUESTS, seed=12, deadline_s=DEADLINE_S
        )
        assert a.transcript != b.transcript

    def test_single_replica_baseline_drops_requests(self, world):
        # Same fault schedule, retargeted at the only replica: the
        # baseline deployment goes CRITICAL and sheds most traffic,
        # serving the remainder from the model-free prior.
        start = kill_schedule(4)[0].start
        schedule = [
            ReplicaFault(kind=REPLICA_KILL, replica=0, start=start)
        ]
        _, report = self.run_drill(world, 1, schedule)
        assert report.shed > 0
        assert report.by_source.get("fleet_popularity", 0) > 0
        assert report.model_served_fraction < 0.99


class TestScoringFaults:
    def test_nan_burst_is_hedged_onto_healthy_replicas(self, world):
        fleet, clock = make_fleet(world, 4)
        schedule = [
            ReplicaFault(
                kind=REPLICA_NAN, replica=1, start=50, duration=30
            )
        ]
        report = FleetChaosDrill(fleet, schedule, clock=clock).run(
            N_REQUESTS, seed=3, deadline_s=DEADLINE_S
        )
        # The burst is absorbed: hedges fire, the sick replica's
        # breaker opens, and every page still comes from a real model.
        assert fleet.stats.hedges > 0
        assert report.model_served_fraction >= 0.99
        assert report.shed == 0
        # The scoring shadow is always removed afterwards.
        assert "score_candidates" not in vars(fleet.replicas[1].service)

    def test_slowdown_advances_injected_clock_latency(self, world):
        fleet, clock = make_fleet(world, 2)
        schedule = [
            ReplicaFault(
                kind=REPLICA_SLOWDOWN,
                replica=0,
                start=0,
                duration=N_REQUESTS,
                latency_s=0.05,
            ),
            ReplicaFault(
                kind=REPLICA_SLOWDOWN,
                replica=1,
                start=0,
                duration=N_REQUESTS,
                latency_s=0.05,
            ),
        ]
        report = FleetChaosDrill(fleet, schedule, clock=clock).run(
            60, seed=3, deadline_s=DEADLINE_S
        )
        assert report.served == 60
        summary = fleet.stats.latency_summary()
        # Every scoring call burned 0.05s of injected-clock time.
        assert summary["p50"] == pytest.approx(0.05, rel=1e-6)
        assert clock.now > 0.0

    def test_kill_with_duration_revives_and_rebalances(self, world):
        fleet, clock = make_fleet(world, 4)
        schedule = [
            ReplicaFault(
                kind=REPLICA_KILL, replica=2, start=50, duration=100
            )
        ]
        report = FleetChaosDrill(fleet, schedule, clock=clock).run(
            N_REQUESTS, seed=3, deadline_s=DEADLINE_S
        )
        assert any("fault revive" in line for line in report.fault_log)
        assert all(r.alive for r in fleet.replicas)
        # After revival the replica takes traffic again: it serves more
        # requests than the outage window alone would have allowed.
        assert fleet.stats.by_replica.get("replica-2", 0) > 0
        revive_step = 150
        post_revive = [
            e
            for e in fleet.transcript
            if e.request >= revive_step and e.served_by == "replica-2"
        ]
        assert post_revive, "revived replica must be rebalanced into rotation"
        assert report.model_served_fraction >= 0.99

    def test_fault_targeting_unknown_replica_rejected(self, world):
        fleet, clock = make_fleet(world, 2)
        schedule = [ReplicaFault(kind=REPLICA_KILL, replica=5, start=10)]
        with pytest.raises(ValueError, match="replica 5"):
            FleetChaosDrill(fleet, schedule, clock=clock)
