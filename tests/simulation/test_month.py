"""The production-month simulator: drift schedules, determinism,
confounder detection, and the managed-vs-strawmen regret ordering.

The integration tests run a two-tenant smoke month (8 days) -- small
enough for CI, large enough that every drift kind lands, the lifecycle
retrains at least once, and the oracle-regret comparison is meaningful.
"""

import gc
import json
import weakref

import pytest

import repro.simulation.month as month_module

from repro.data.drift_schedule import (
    CATALOG_CHURN,
    CONFOUNDER_SHIFT,
    CTR_SEASON,
    POSITION_BIAS_SHIFT,
    DriftEvent,
    build_drift_schedule,
    config_for_day,
)
from repro.data.scenarios import scenario_config
from repro.reliability.faults import FleetFaultSpec
from repro.simulation.month import (
    ALWAYS_PROMOTE,
    MANAGED,
    NEVER_RETRAIN,
    MonthConfig,
    compare_month_policies,
    run_month,
)

pytestmark = pytest.mark.month

SMOKE_TENANTS = ("ae_es", "alipay_search")

#: Two tenants, eight days -- every drift window survives clipping.
SMOKE = dict(
    tenants=SMOKE_TENANTS,
    days=8,
    seed=7,
    n_users=160,
    n_items=220,
    bootstrap_rows=1500,
    pages_per_day=40,
    candidates_per_page=16,
    page_size=5,
    eval_rows=400,
    canary_pages=40,
    epochs=3,
    retrain_every_days=4,
    train_window_days=6,
    exploration_rows_per_day=120,
    reference_rows=400,
    calibration_min_samples=150,
    calibration_window=600,
)


def _smoke_config(**overrides):
    kwargs = dict(SMOKE)
    kwargs.update(overrides)
    return MonthConfig(**kwargs)


def _base_configs(tenants):
    return {
        name: scenario_config(name, n_users=160, n_items=220, n_train=512)
        for name in tenants
    }


# ---------------------------------------------------------------------------
# Drift schedules
# ---------------------------------------------------------------------------
class TestDriftSchedule:
    def test_same_seed_same_schedule(self):
        bases = _base_configs(SMOKE_TENANTS)
        a = build_drift_schedule(SMOKE_TENANTS, bases, seed=3, days=28)
        b = build_drift_schedule(SMOKE_TENANTS, bases, seed=3, days=28)
        assert a == b

    def test_tenant_streams_are_independent(self):
        """Dropping a tenant never perturbs the others' schedules."""
        tenants = ("ae_es", "ae_fr", "alipay_search")
        bases = _base_configs(tenants)
        full = build_drift_schedule(tenants, bases, seed=5, days=28)
        subset = ("ae_es", "alipay_search")
        partial = build_drift_schedule(
            subset,
            {k: bases[k] for k in subset},
            seed=5,
            days=28,
        )
        # ae_es keeps index 0 in both sorted orders; its schedule must
        # be byte-for-byte the same without ae_fr in the list.
        assert partial["ae_es"] == full["ae_es"]

    def test_every_kind_scheduled_once_per_tenant(self):
        bases = _base_configs(SMOKE_TENANTS)
        schedule = build_drift_schedule(
            SMOKE_TENANTS, bases, seed=0, days=28
        )
        for tenant, events in schedule.items():
            kinds = [e.kind for e in events]
            for one_shot in (
                POSITION_BIAS_SHIFT,
                CATALOG_CHURN,
                CONFOUNDER_SHIFT,
            ):
                assert kinds.count(one_shot) == 1, (tenant, one_shot)
            assert kinds.count(CTR_SEASON) >= 1
            assert events == sorted(events, key=lambda e: (e.day, e.kind))

    def test_windows_clip_inside_short_months(self):
        bases = _base_configs(SMOKE_TENANTS)
        for days in (1, 3, 8):
            schedule = build_drift_schedule(SMOKE_TENANTS, bases, seed=0, days=days)
            for events in schedule.values():
                kinds = {e.kind for e in events}
                assert {POSITION_BIAS_SHIFT, CATALOG_CHURN, CONFOUNDER_SHIFT} <= kinds
                assert all(0 <= e.day < days for e in events)

    def test_config_for_day_folds_overrides_in_order(self):
        base = _base_configs(("ae_es",))["ae_es"]
        events = [
            DriftEvent(
                day=1, tenant="ae_es", kind=CTR_SEASON,
                overrides={"target_ctr": 0.11},
            ),
            DriftEvent(
                day=3, tenant="ae_es", kind=CTR_SEASON,
                overrides={"target_ctr": 0.22},
            ),
            DriftEvent(day=2, tenant="ae_es", kind=CATALOG_CHURN, new_items=9),
        ]
        assert config_for_day(base, events, day=0) == base
        assert config_for_day(base, events, day=1).target_ctr == 0.11
        # Later events win field-by-field; churn folds to a no-op.
        assert config_for_day(base, events, day=5).target_ctr == 0.22

    def test_describe_is_deterministic(self):
        event = DriftEvent(
            day=4,
            tenant="ae_es",
            kind=CONFOUNDER_SHIFT,
            overrides={
                "hidden_confounder_conversion": 1.5,
                "hidden_confounder_click": 0.75,
            },
        )
        assert event.describe() == (
            "confounder_shift(hidden_confounder_click=0.7500, "
            "hidden_confounder_conversion=1.5000)"
        )

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown drift kind"):
            DriftEvent(day=0, tenant="x", kind="nope")
        with pytest.raises(ValueError, match="day must be"):
            DriftEvent(day=-1, tenant="x", kind=CTR_SEASON)


# ---------------------------------------------------------------------------
# Month configuration
# ---------------------------------------------------------------------------
class TestMonthConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            MonthConfig(mode="yolo")

    def test_rejects_unknown_tenant(self):
        with pytest.raises(ValueError, match="unknown tenants"):
            MonthConfig(tenants=("ae_es", "nope"))

    def test_rejects_page_wider_than_candidates(self):
        with pytest.raises(ValueError, match="page_size"):
            MonthConfig(page_size=30, candidates_per_page=10)


# ---------------------------------------------------------------------------
# The smoke month (shared runs -- each one costs a few seconds)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    return compare_month_policies(
        _smoke_config(), workdir=tmp_path_factory.mktemp("month_cmp")
    )


@pytest.fixture(scope="module")
def managed_report(comparison):
    return comparison.reports[MANAGED]


@pytest.fixture(scope="module")
def managed_rerun(tmp_path_factory):
    return run_month(
        _smoke_config(), workdir=tmp_path_factory.mktemp("month_rerun")
    )


class TestDeterminism:
    def test_same_seed_transcript_is_bit_identical(
        self, managed_report, managed_rerun
    ):
        assert managed_rerun.transcript() == managed_report.transcript()

    def test_same_seed_daily_rows_match(self, managed_report, managed_rerun):
        assert managed_rerun.daily == managed_report.daily

    def test_transcript_is_wall_clock_free(self, managed_report):
        import re

        transcript = managed_report.transcript()
        assert not re.search(r"\d{4}-\d{2}-\d{2}", transcript), (
            "no calendar dates in the transcript"
        )
        assert not re.search(r"\d{2}:\d{2}:\d{2}", transcript), (
            "no clock times in the transcript"
        )
        for line in managed_report.transcript_lines():
            assert line.startswith("[day ")


class TestManagedMonth:
    def test_bootstrap_and_serving_for_every_tenant(self, managed_report):
        kinds = {
            (e.tenant, e.kind) for e in managed_report.events
        }
        for tenant in SMOKE_TENANTS:
            assert (tenant, "bootstrap") in kinds
            assert (tenant, "day_summary") in kinds
            assert (tenant, "drift") in kinds

    def test_catalog_churn_round_trip(self, managed_report):
        """Churn day: quarantine -> vocab growth -> re-admission."""
        kinds = {e.kind for e in managed_report.events}
        assert "quarantine" in kinds
        assert "vocab_grown" in kinds
        assert "readmitted" in kinds
        for tenant in SMOKE_TENANTS:
            churn = [
                e for e in managed_report.events
                if e.tenant == tenant and e.kind == "drift"
                and e.detail.startswith("catalog_churn")
            ]
            grown = [
                e for e in managed_report.events
                if e.tenant == tenant and e.kind == "vocab_grown"
            ]
            assert len(churn) == 1
            assert grown, f"{tenant}: churn never grew the vocabulary"
            assert grown[0].day == churn[0].day

    def test_confounder_shift_is_detected_and_answered(self, managed_report):
        """The silent propensity break must end in a promoted retrain.

        For at least one tenant the scheduled ``confounder_shift`` is
        followed (same day or later) by a monitor-triggered retrain and
        a ``canary_promote`` -- the lifecycle noticed a shift no feature
        distribution shows and shipped an adapted champion.
        """
        answered = []
        for tenant in SMOKE_TENANTS:
            shift_day = next(
                e.day
                for e in managed_report.events
                if e.tenant == tenant and e.kind == "drift"
                and e.detail.startswith("confounder_shift")
            )
            tripped = any(
                e.tenant == tenant and e.kind == "retrain"
                and e.day >= shift_day
                and "reason=calibration_trip" in e.detail
                for e in managed_report.events
            )
            promoted = any(
                e.tenant == tenant and e.kind == "canary_promote"
                and e.day >= shift_day
                for e in managed_report.events
            )
            if tripped and promoted:
                answered.append(tenant)
        assert answered, "no tenant detected + answered its confounder shift"

    def test_health_spans_cover_the_month(self, managed_report):
        for tenant in SMOKE_TENANTS:
            spans = managed_report.health_spans[tenant]
            assert spans, f"{tenant}: empty health timeline"
            for span in spans:
                assert {"start", "end", "fleet", "replicas"} <= set(span)
                assert span["start"] <= span["end"]

    def test_daily_rows_carry_monitor_and_regret_fields(self, managed_report):
        assert len(managed_report.daily) == SMOKE["days"] * len(SMOKE_TENANTS)
        required = {
            "day", "tenant", "served_pages", "shed", "calibration",
            "calibration_gap", "calibration_drift", "sentinel",
            "champion", "oracle_auc", "model_auc", "regret",
        }
        for row in managed_report.daily:
            assert required <= set(row)
            assert row["regret"] >= 0.0

    def test_report_round_trips_through_json(self, managed_report):
        payload = json.loads(json.dumps(managed_report.to_dict()))
        assert payload["mode"] == MANAGED
        assert payload["days"] == SMOKE["days"]
        assert payload["transcript"] == managed_report.transcript_lines()


class TestColdCacheChurn:
    def test_day_zero_churn_with_cold_champion_cache(self, tmp_path):
        """Churn can land before anything warms the manager's champion
        cache (a two-day month clips the churn window to day 0-1).
        Growth must load the stored blob at its *pre-growth* shape --
        regression test for growing the schema before the load."""
        report = run_month(
            MonthConfig(
                tenants=("ae_es",),
                days=2,
                seed=3,
                n_users=120,
                n_items=160,
                bootstrap_rows=1200,
                pages_per_day=30,
                candidates_per_page=12,
                page_size=4,
                eval_rows=300,
                canary_pages=30,
                epochs=2,
                exploration_rows_per_day=100,
                reference_rows=300,
                calibration_min_samples=120,
                calibration_window=500,
            ),
            workdir=tmp_path,
        )
        assert any(e.kind == "vocab_grown" for e in report.events)
        assert len(report.daily) == 2


class TestMonthLifetime:
    def test_finished_month_frees_its_worlds_without_gc(
        self, tmp_path, monkeypatch
    ):
        """Dropping a finished month frees every world it built by
        reference counting alone: no tenant sits in a reference cycle
        (the lifecycle manager and fleet hold a model factory that does
        not reference the tenant).  Drift derives each world from the
        one before: a tenant's derived worlds share one read-only set of
        probe logits, and a world built without a base holds none."""
        worlds = []
        probes = {}
        real = month_module.SyntheticScenario

        def recording(config, base=None):
            world = real(config, base=base)
            worlds.append(weakref.ref(world))
            if base is None:
                assert world._probe is None
            else:
                probes.setdefault(config.name, []).append(world._probe)
            return world

        monkeypatch.setattr(month_module, "SyntheticScenario", recording)
        enabled = gc.isenabled()
        gc.disable()
        try:
            sim = month_module.MonthSimulation(
                _smoke_config(pages_per_day=12, canary_pages=12),
                workdir=tmp_path,
            )
            report = sim.run()
            assert any(w() is not None for w in worlds)
            del sim
            alive = sum(w() is not None for w in worlds)
        finally:
            if enabled:
                gc.enable()
        assert len(worlds) > len(SMOKE_TENANTS), "drift rebuilt no world"
        assert report.daily
        assert alive == 0, f"{alive} of {len(worlds)} worlds outlive the month"
        assert sorted(probes) == sorted(SMOKE_TENANTS)
        for shared in probes.values():
            assert all(probe is shared[0] for probe in shared)
            for array in (shared[0].click, shared[0].hidden, shared[0].positions):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0


class TestFaultLayer:
    def test_fleet_faults_ride_the_month(self, tmp_path):
        """A seeded fault schedule layers onto daily serving: the fleet
        loses a replica mid-month, the transcript records it, and the
        month still completes every day for every tenant."""
        report = run_month(
            _smoke_config(
                tenants=("ae_es",),
                days=3,
                n_replicas=3,
                fault_spec=FleetFaultSpec(n_kills=1, n_slowdowns=1),
            ),
            workdir=tmp_path,
        )
        faults = [e for e in report.events if e.kind == "fault"]
        assert faults, "the schedule must inject at least one fault"
        assert len([e for e in report.events if e.kind == "day_summary"]) == 3
        # The health timeline records the degradation the kill caused.
        spans = report.health_spans["ae_es"]
        assert any(span["fleet"] != "HEALTHY" for span in spans)


class TestRegretComparison:
    def test_all_three_modes_ran(self, comparison):
        assert set(comparison.reports) == {
            MANAGED, NEVER_RETRAIN, ALWAYS_PROMOTE,
        }

    def test_strawmen_never_gate(self, comparison):
        never = comparison.reports[NEVER_RETRAIN]
        assert not any(e.kind == "retrain" for e in never.events)
        always = comparison.reports[ALWAYS_PROMOTE]
        assert any(e.kind == "retrain" for e in always.events)
        assert not any(e.kind == "canary_promote" for e in always.events)

    def test_managed_beats_both_strawmen(self, comparison):
        regrets = comparison.regrets()
        assert comparison.managed_wins, (
            f"managed must accumulate the least oracle regret: {regrets}"
        )

    def test_comparison_dict_is_json_serialisable(self, comparison):
        payload = json.loads(json.dumps(comparison.to_dict()))
        assert payload["managed_wins"] is True
        assert set(payload["total_regret"]) == {
            MANAGED, NEVER_RETRAIN, ALWAYS_PROMOTE,
        }
