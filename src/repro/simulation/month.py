"""A deterministic "production month": multi-tenant serving under drift.

Everything this repository builds -- the DCMT estimators, the serving
fleet, quarantine ingestion, delayed-feedback correction, drift
monitoring, and the model lifecycle -- exists because a post-click
conversion system has to *keep working while the world changes under
it*.  This module is the closing integration: a time-stepped simulation
where the six Table II scenario presets run as concurrent tenants, each
behind its own :class:`~repro.simulation.fleet.ServingFleet`, while a
seeded :mod:`~repro.data.drift_schedule` moves the ground truth --
seasonal CTR swings, a logging-policy ``position_bias`` jump, catalog
churn injecting out-of-vocabulary item ids, and a mid-month
``hidden_confounder_*`` shift that silently invalidates every
propensity the champion was calibrated on.

Each simulated day, per tenant:

1. **Drift applies.**  Overrides due today fold into the tenant's
   :class:`~repro.data.synthetic.ScenarioConfig` and the world is
   rebuilt.  Rebuilding recalibrates intercepts but never re-draws
   latent vectors (same seed, same draw shapes), so features stay
   bit-identical across drift -- only behaviour moves.
2. **Traffic serves** through the fleet (power-of-two routing, hedged
   retries, optional chaos-drill faults layered on), and the served
   pages -- plus a small policy-free exploration slice, the sliver of
   traffic every production ranker reserves -- accrete into the
   tenant's log with exposure timestamps and sampled
   conversion-attribution delays.
3. **Ingestion gates** the day's log through
   :func:`~repro.data.ingest.quarantine_oov_rows`: churn-day rows
   referencing unseen item ids are held, the embedding vocabulary is
   grown in place (zero rows; bit-identical scores for existing ids),
   the grown champion is re-published via
   :meth:`~repro.lifecycle.manager.ModelLifecycleManager.adopt`, and
   the held rows are re-admitted.
4. **Monitors watch.**  A :class:`~repro.reliability.drift.DriftSentinel`
   frozen on a policy-free reference probe watches the exploration
   slice's features and prediction distributions (so the serving
   policy's selection warp never reads as drift); a
   :class:`~repro.reliability.drift.CalibrationMonitor` pairs the
   champion's predicted CTR on live traffic with realised clicks,
   baselined against the champion's own steady-state selection gap --
   the only signal that sees a confounder shift, which by construction
   moves *no* observable feature distribution.
5. **The lifecycle decides.**  In ``managed`` mode a tripped monitor
   (or the retrain cadence) triggers retrain -> gate -> fleet canary ->
   promote/demote, with the delayed-feedback inverse-maturation
   correction (:func:`~repro.simulation.feedback.lifecycle_retrain_view`)
   applied to the censored training view.  Two strawmen bracket it:
   ``never_retrain`` ships the day-0 champion forever, and
   ``always_promote`` retrains on a fast cadence and adopts every
   candidate unconditionally -- *without* the maturation correction,
   i.e. "blindly trust fresh data", the classic delayed-feedback trap.

The whole run emits a wall-clock-free transcript keyed by
``(day, tenant, event)`` that is bit-identical across same-seed runs
(all time comes from injected tick clocks; all randomness from
``SeedSequence([seed, tenant, day, stream])``), plus an **oracle-regret
report**: each day the serving champion is scored on a policy-free
evaluation set against the generator's true conversion probabilities
(the oracle ceiling -- knowledge only a synthetic world can provide),
and :func:`compare_month_policies` checks that the managed lifecycle
accumulates less regret than both strawmen.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.drift_schedule import (
    CATALOG_CHURN,
    DriftEvent,
    build_drift_schedule,
    config_for_day,
)
from repro.data.ingest import QuarantineStore, quarantine_oov_rows
from repro.data.scenarios import SCENARIO_PRESETS, scenario_config
from repro.data.schema import FeatureSchema
from repro.data.synthetic import POSITION_COUNT, SyntheticScenario
from repro.lifecycle.canary import CanaryPolicy
from repro.lifecycle.gate import GatePolicy, PromotionGate
from repro.lifecycle.manager import ModelLifecycleManager
from repro.lifecycle.registry import ModelRegistry
from repro.metrics.ranking import auc
from repro.models import ModelConfig, build_model
from repro.reliability.config import FleetPolicy
from repro.reliability.drift import (
    CalibrationMonitor,
    CalibrationThresholds,
    DriftReference,
    DriftSentinel,
    DriftThresholds,
    STATUS_TRIP,
)
from repro.reliability.errors import RequestShedError
from repro.reliability.faults import FleetFaultSpec, build_fleet_fault_schedule
from repro.simulation.behavior import BehaviorSimulator
from repro.simulation.feedback import lifecycle_retrain_view
from repro.simulation.fleet import FleetChaosDrill, ServingFleet
from repro.training import TrainConfig, fit_model
from repro.utils.logging import get_logger, log_event

logger = get_logger("simulation.month")

#: Lifecycle policies the month can run under.
MANAGED = "managed"
NEVER_RETRAIN = "never_retrain"
ALWAYS_PROMOTE = "always_promote"
MODES = (MANAGED, NEVER_RETRAIN, ALWAYS_PROMOTE)

#: All six Table II tenants (see ``repro.data.scenarios``).
ALL_TENANTS = tuple(sorted(SCENARIO_PRESETS))

#: Event-rate compression: the Table II presets' production rates
#: (CTR ~5-10%, CVR-given-click ~16-30%) would leave a tractable month
#: with a handful of conversions -- pure noise for any CVR estimator.
#: Each tenant's target rates are floored at these values so a
#: simulated day carries enough events to learn from; tenants whose
#: presets already exceed the floor keep their own.
MIN_TARGET_CTR = 0.30
MIN_TARGET_CVR = 0.30
#: Age of the bootstrap log in days (sets t0; most bootstrap
#: conversions have matured by the time the month starts).
BOOTSTRAP_AGE_DAYS = 3
#: Injected-clock seconds between consecutive requests (lets open
#: breakers cool down and probe half-open across a day).
REQUEST_INTERVAL_S = 1.0
#: Mean conversion-attribution delay.  Long enough that a fast retrain
#: cadence sees heavily censored recent days: training those rows as
#: real negatives (the ``always_promote`` strawman) is the classic
#: delayed-feedback trap the managed lifecycle's inverse-maturation
#: correction exists to avoid.
DELAY_MEAN_HOURS = 36.0
#: Item-dependence of the delay.  Uniform censoring only rescales
#: scores; *item-varying* censoring corrupts the ranking itself, which
#: is what the oracle-AUC regret measures.
DELAY_ITEM_SPREAD = 0.9
#: Cadence of the ``always_promote`` strawman.
ALWAYS_RETRAIN_EVERY_DAYS = 2
#: Minimum days between triggered retrains (monitor trips latch until a
#: promotion resets them; without a cooldown one shift would retrain
#: daily).
RETRAIN_COOLDOWN_DAYS = 2
CANARY_TRAFFIC_FRACTION = 0.35
CANARY_MIN_REQUESTS = 12
#: Days after a promotion during which a severe calibration deviation
#: rolls the promotion back (the new champion made live traffic
#: *worse*).
ROLLBACK_GRACE_DAYS = 2
#: Calibration drift (vs the previous champion's baseline) that
#: triggers a rollback.  Deliberately much wider than the retrain trip:
#: successors legitimately carry a somewhat different selection gap,
#: and reverting a promotion erases adaptation -- reserve it for
#: promotions that are actually broken.
ROLLBACK_GAP_TRIP = 0.12
CALIBRATION_GAP_WARN = 0.025
CALIBRATION_GAP_TRIP = 0.05


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MonthConfig:
    """Shape of one simulated production month.

    Defaults target the full six-tenant, 28-day report run; tests use
    two tenants and a short month.  Every random draw in the simulation
    descends from ``seed`` through keyed ``SeedSequence`` streams, so
    two runs with equal configs produce bit-identical transcripts.
    """

    tenants: Tuple[str, ...] = ALL_TENANTS
    days: int = 28
    seed: int = 0
    mode: str = MANAGED

    # -- world scale (presets are shrunk to these caps so a month of
    # -- serving and ~a dozen retrains stays tractable) ----------------
    n_users: int = 240
    n_items: int = 320
    #: Rows in the organic bootstrap log the day-0 champion trains on.
    bootstrap_rows: int = 3000

    # -- serving -------------------------------------------------------
    pages_per_day: int = 90
    candidates_per_page: int = 24
    page_size: int = 6
    n_replicas: int = 2
    #: Daily policy-free exploration slice (uniform users, popularity
    #: exposure, no model in the loop).  Production systems reserve a
    #: sliver of traffic exactly like this: it is the only slice whose
    #: distribution the serving policy cannot warp, so it feeds the
    #: drift sentinel and de-biases the retrain window.
    exploration_rows_per_day: int = 140
    #: Rows in the policy-free probe each drift reference is captured
    #: on (same generator as the exploration slice, so pre-drift
    #: sentinel observations match the reference in distribution).
    reference_rows: int = 600

    # -- delayed conversion feedback -----------------------------------
    weight_cap: float = 20.0

    # -- retraining ----------------------------------------------------
    retrain_every_days: int = 7
    train_window_days: int = 14
    model_name: str = "dcmt"
    embedding_dim: int = 8
    hidden_sizes: Tuple[int, ...] = (32, 16)
    epochs: int = 4
    batch_size: int = 256
    learning_rate: float = 0.003

    # -- evaluation / lifecycle ----------------------------------------
    eval_rows: int = 600
    canary_pages: int = 60

    # -- monitors ------------------------------------------------------
    calibration_min_samples: int = 300
    calibration_window: int = 1200

    # -- faults --------------------------------------------------------
    #: Optional replica-fault layer applied to every tenant's fleet.
    fault_spec: Optional[FleetFaultSpec] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.days < 1:
            raise ValueError(f"days must be >= 1, got {self.days}")
        if not self.tenants:
            raise ValueError("at least one tenant is required")
        unknown = [t for t in self.tenants if t not in SCENARIO_PRESETS]
        if unknown:
            raise ValueError(
                f"unknown tenants {unknown}; choose from {ALL_TENANTS}"
            )
        if self.pages_per_day < 1 or self.canary_pages < 1:
            raise ValueError("pages_per_day and canary_pages must be >= 1")
        if self.page_size > self.candidates_per_page:
            raise ValueError("page_size cannot exceed candidates_per_page")


# ---------------------------------------------------------------------------
# Transcript events
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MonthEvent:
    """One ``(day, tenant, event)`` transcript entry (no wall clock)."""

    day: int
    tenant: str
    kind: str
    detail: str = ""

    def line(self) -> str:
        return (
            f"[day {self.day:02d}] {self.tenant:<14s} "
            f"{self.kind:<20s} {self.detail}"
        ).rstrip()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------
@dataclass
class MonthReport:
    """Everything one month run produced, as comparable values."""

    mode: str
    seed: int
    days: int
    tenants: Tuple[str, ...]
    events: List[MonthEvent]
    #: One row per (day, tenant): serving counters, monitor statuses,
    #: and the day's oracle-regret measurement.
    daily: List[Dict[str, object]]
    tenant_summary: Dict[str, Dict[str, object]]
    #: Final fleet snapshot per tenant.
    fleet: Dict[str, Dict[str, object]]
    #: HEALTHY/DEGRADED/... spans per tenant, straight from
    #: :meth:`~repro.simulation.fleet.FleetStats.health_spans` -- the
    #: dashboard surface, no event scraping.
    health_spans: Dict[str, List[Dict[str, object]]]

    def transcript_lines(self) -> List[str]:
        return [event.line() for event in self.events]

    def transcript(self) -> str:
        """The whole month as one stable string (bit-comparable)."""
        return "\n".join(self.transcript_lines())

    @property
    def total_regret(self) -> float:
        """Summed daily oracle CVR-AUC regret across tenants."""
        return float(sum(row["regret"] for row in self.daily))

    def regret_by_tenant(self) -> Dict[str, float]:
        out: Dict[str, float] = {t: 0.0 for t in self.tenants}
        for row in self.daily:
            out[row["tenant"]] += float(row["regret"])
        return {t: float(v) for t, v in out.items()}

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "days": self.days,
            "tenants": list(self.tenants),
            "total_regret": self.total_regret,
            "regret_by_tenant": self.regret_by_tenant(),
            "tenant_summary": self.tenant_summary,
            "daily": self.daily,
            "fleet": self.fleet,
            "health_spans": self.health_spans,
            "transcript": self.transcript_lines(),
        }


@dataclass
class MonthComparison:
    """Managed lifecycle vs the two strawmen on the same seeded month."""

    reports: Dict[str, MonthReport]

    def regrets(self) -> Dict[str, float]:
        return {mode: r.total_regret for mode, r in self.reports.items()}

    @property
    def managed_wins(self) -> bool:
        """Does the managed run beat *both* strawmen on total regret?"""
        regrets = self.regrets()
        managed = regrets[MANAGED]
        return all(
            managed < regrets[mode]
            for mode in regrets
            if mode != MANAGED
        )

    def to_dict(self) -> Dict[str, object]:
        managed = self.reports[MANAGED]
        return {
            "seed": managed.seed,
            "days": managed.days,
            "tenants": list(managed.tenants),
            "total_regret": self.regrets(),
            "regret_by_tenant": {
                mode: report.regret_by_tenant()
                for mode, report in self.reports.items()
            },
            "managed_wins": self.managed_wins,
            "tenant_summary": {
                mode: report.tenant_summary
                for mode, report in self.reports.items()
            },
            # The managed run's full decision trail rides along so the
            # committed artifact is self-auditing: every drift event,
            # monitor trip, gate verdict, promotion, and rollback, in a
            # wall-clock-free form that is bit-identical across
            # same-seed runs.
            "managed_transcript": managed.transcript_lines(),
            "managed_health_spans": managed.health_spans,
        }


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------
class _TickClock:
    """Injected monotonic clock: a mutable ``now`` plus ``__call__``.

    Breakers, deadlines, and chaos-drill slowdowns all read (and
    advance) this object, so the month consumes zero wall-clock time
    and two same-seed runs see identical timestamps.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now


def _schema_with_item_vocab(schema: FeatureSchema, vocab: int) -> FeatureSchema:
    """The world schema with ``item_id``'s vocabulary capped at ``vocab``.

    The world is built once with catalog headroom (so latent vectors
    never re-draw across churn); the *serving* vocabulary starts at the
    base catalog and grows when churn lands.
    """
    sparse = [
        replace(f, vocab_size=vocab) if f.name == "item_id" else f
        for f in schema.sparse
    ]
    return FeatureSchema(sparse=sparse, dense=list(schema.dense))


@dataclass
class _ModelFactory:
    """Builds a fresh model against the tenant's *current* serving schema.

    After catalog churn grows ``schema``, registry loads and retrains
    automatically target the grown vocabulary.  The lifecycle manager
    and the fleet hold this object, not a bound ``_Tenant`` method: that
    would close a tenant -> manager -> tenant cycle, which keeps a
    finished month's worlds, fleets and models alive until a full
    garbage collection instead of freeing them on the last reference.
    """

    model_name: str
    schema: FeatureSchema
    model_config: ModelConfig

    def __call__(self):
        return build_model(self.model_name, self.schema, self.model_config)


@dataclass
class _Tenant:
    """Everything one tenant carries through the month."""

    name: str
    index: int
    events: List[DriftEvent]
    world_base: object  # ScenarioConfig with catalog headroom
    world: SyntheticScenario
    behavior: BehaviorSimulator
    factory: _ModelFactory
    vocab: int
    active_items: int
    registry: ModelRegistry
    manager: ModelLifecycleManager
    clock: _TickClock
    train_config: TrainConfig
    calibration: CalibrationMonitor
    fleet: Optional[ServingFleet] = None
    drill: Optional[FleetChaosDrill] = None
    sentinel: Optional[DriftSentinel] = None
    quarantine: QuarantineStore = field(default_factory=QuarantineStore)
    #: Accreted logs: ``(day, dataset)``; day -1 is the bootstrap log.
    log: List[Tuple[int, InteractionDataset]] = field(default_factory=list)
    eval_set: Optional[InteractionDataset] = None
    eval_oracle: Optional[np.ndarray] = None
    request_step: int = 0
    last_retrain_day: int = -10
    promoted_day: Optional[int] = None
    prev_champion: Optional[str] = None
    #: Item vocabulary each published version was built against
    #: (rollback across a vocabulary growth is a shape mismatch).
    version_vocab: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by


class MonthSimulation:
    """Drives one seeded production month under one lifecycle mode."""

    def __init__(
        self, config: MonthConfig, workdir: "Path | str | None" = None
    ) -> None:
        self.config = config
        if workdir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="month_")
            workdir = self._tmp.name
        self.workdir = Path(workdir)
        self.events: List[MonthEvent] = []
        self.daily: List[Dict[str, object]] = []
        self.tenants: List[_Tenant] = []
        #: Hours on the maturation clock at day 0 of the month.
        self.t0_hours = float(BOOTSTRAP_AGE_DAYS * 24)

    # -- event plumbing -------------------------------------------------
    def _emit(self, day: int, tenant: str, kind: str, detail: str = "") -> None:
        self.events.append(MonthEvent(day, tenant, kind, detail))

    def _rng(self, tenant: _Tenant, day: int, stream: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(
                [self.config.seed, tenant.index, day + 1, stream]
            )
        )

    # -- world construction ---------------------------------------------
    def _build_tenants(self) -> None:
        cfg = self.config
        bases = {}
        for name in cfg.tenants:
            preset = SCENARIO_PRESETS[name]
            bases[name] = scenario_config(
                name,
                n_users=min(preset.n_users, cfg.n_users),
                n_items=min(preset.n_items, cfg.n_items),
                n_train=cfg.bootstrap_rows,
                n_test=max(cfg.eval_rows, 1),
                target_ctr=max(preset.target_ctr, MIN_TARGET_CTR),
                target_cvr_given_click=max(
                    preset.target_cvr_given_click, MIN_TARGET_CVR
                ),
                conversion_delay_mean_hours=DELAY_MEAN_HOURS,
                conversion_delay_item_spread=DELAY_ITEM_SPREAD,
                log_span_hours=self.t0_hours,
            )
        schedule = build_drift_schedule(cfg.tenants, bases, cfg.seed, cfg.days)
        order = {name: i for i, name in enumerate(sorted(cfg.tenants))}
        for name in cfg.tenants:
            base = bases[name]
            events = schedule[name]
            headroom = sum(
                e.new_items for e in events if e.kind == CATALOG_CHURN
            )
            # Build the world ONCE with catalog headroom: rebuilds under
            # drift then keep every latent draw bit-identical, and churn
            # becomes pure vocabulary growth.
            world_base = base.with_overrides(n_items=base.n_items + headroom)
            world = SyntheticScenario(world_base)
            schema = _schema_with_item_vocab(world.schema, base.n_items)
            model_config = ModelConfig(
                embedding_dim=cfg.embedding_dim,
                hidden_sizes=cfg.hidden_sizes,
                seed=cfg.seed + order[name],
            )
            train_config = TrainConfig(
                epochs=cfg.epochs,
                batch_size=cfg.batch_size,
                learning_rate=cfg.learning_rate,
                seed=cfg.seed + order[name],
            )
            registry = ModelRegistry(self.workdir / f"registry_{name}")
            tenant = _Tenant(
                name=name,
                index=order[name],
                events=events,
                world_base=world_base,
                world=world,
                behavior=BehaviorSimulator(world),
                factory=_ModelFactory(cfg.model_name, schema, model_config),
                vocab=base.n_items,
                active_items=base.n_items,
                registry=registry,
                manager=None,  # set below
                clock=_TickClock(),
                train_config=train_config,
                calibration=CalibrationMonitor(
                    f"{name}:ctr",
                    CalibrationThresholds(
                        gap_warn=CALIBRATION_GAP_WARN,
                        gap_trip=CALIBRATION_GAP_TRIP,
                        min_samples=cfg.calibration_min_samples,
                    ),
                    window=cfg.calibration_window,
                    # Serving traffic carries a steady-state selection
                    # gap (ranking selects predictions that overshoot);
                    # alert on deviation from the champion's own
                    # baseline, not on the selection effect itself.
                    auto_baseline=True,
                ),
            )
            # The gate's shadow-drift veto and the canary's candidate
            # sentinel compare the candidate's predictions against the
            # *previous* champion's frozen reference.  In a month whose
            # entire point is that the world drifts, a retrained
            # candidate predicting differently is the desired outcome,
            # not a fault -- measured PSI for a legitimate adaptation
            # runs 3-17 here.  Park both vetoes out of reach and let
            # the gate's AUC/ECE/sanity checks plus the canary's live
            # health/breaker verdict do the protecting.
            unbinding_drift = DriftThresholds(
                psi_warn=25.0,
                psi_trip=30.0,
                ks_warn=1.25,
                ks_trip=1.5,
                min_samples=1,
            )
            tenant.manager = ModelLifecycleManager(
                registry,
                tenant.factory,
                gate=PromotionGate(
                    GatePolicy(
                        max_auc_regression=0.02,
                        max_ece_increase=0.05,
                        drift=unbinding_drift,
                    )
                ),
                canary_policy=CanaryPolicy(
                    traffic_fraction=CANARY_TRAFFIC_FRACTION,
                    min_requests=CANARY_MIN_REQUESTS,
                    max_degraded_fraction=0.25,
                    salt=cfg.seed + tenant.index,
                ),
                canary_drift_thresholds=unbinding_drift,
            )
            self.tenants.append(tenant)

    def _organic_log(self, t: _Tenant, n: int, rng, t_lo: float, t_hi: float,
                     day: int) -> InteractionDataset:
        """Policy-free exposure rows over the active catalog.

        Popularity-weighted item exposure (no model in the loop), true
        click/conversion sampling from the *current* world, exposure
        timestamps uniform on ``[t_lo, t_hi)``, and attribution delays
        from the item-dependent delay model.
        """
        world = t.world
        cfg = world.config
        users = rng.integers(0, cfg.n_users, size=n)
        pop = world.item_popularity[: t.active_items]
        items = rng.choice(t.active_items, size=n, p=pop / pop.sum())
        positions = rng.integers(0, POSITION_COUNT, size=n)
        hidden = world.sample_hidden(n, rng)
        ctr = world.true_ctr(users, items, positions, hidden)
        cvr = world.true_cvr(users, items, hidden)
        clicks = (rng.random(n) < ctr).astype(np.int64)
        conversions = clicks * (rng.random(n) < cvr).astype(np.int64)
        sparse, dense = world.features_for(users, items, positions, rng)
        exposure = np.sort(t_lo + rng.random(n) * (t_hi - t_lo))
        delays = world.sample_conversion_delays(items, rng)
        conv_times = np.where(
            conversions == 1, exposure + delays, np.nan
        )
        return InteractionDataset(
            name=f"{t.name}-organic{day}",
            schema=world.schema,
            sparse=sparse,
            dense=dense,
            clicks=clicks,
            conversions=conversions,
            oracle_cvr=cvr,
            exposure_times=exposure,
            conversion_times=conv_times,
        )

    def _refresh_eval_set(self, t: _Tenant, day: int) -> None:
        """Policy-free oracle evaluation set over the current world.

        Uniform user/item/position exposure, labels sampled from the
        true probabilities; ``eval_oracle`` keeps the true CVR values
        themselves -- the ceiling scorer no estimator can beat except
        by luck.
        """
        cfg = self.config
        rng = self._rng(t, day, 4)
        world = t.world
        n = cfg.eval_rows
        users = rng.integers(0, world.config.n_users, size=n)
        items = rng.integers(0, t.active_items, size=n)
        positions = rng.integers(0, POSITION_COUNT, size=n)
        hidden = world.sample_hidden(n, rng)
        ctr = world.true_ctr(users, items, positions, hidden)
        cvr = world.true_cvr(users, items, hidden)
        clicks = (rng.random(n) < ctr).astype(np.int64)
        oracle_conv = (rng.random(n) < cvr).astype(np.int64)
        sparse, dense = world.features_for(users, items, positions, rng)
        t.eval_set = InteractionDataset(
            name=f"{t.name}-eval{day}",
            schema=world.schema,
            sparse=sparse,
            dense=dense,
            clicks=clicks,
            conversions=clicks * oracle_conv,
            oracle_ctr=ctr,
            oracle_cvr=cvr,
            oracle_conversion=oracle_conv,
        )
        t.eval_oracle = cvr

    # -- lifecycle helpers ----------------------------------------------
    def _roll_fleet(self, t: _Tenant) -> None:
        """Swap every replica to a fresh copy of the current champion."""
        champion = t.manager.champion
        for replica in t.fleet.replicas:
            replica.service.swap_model(
                t.registry.load_model(champion.version, t.factory)
            )
        t.fleet.version = champion.version

    def _reset_monitors(self, t: _Tenant, keep_baseline: bool = False) -> None:
        """Re-arm monitors on the new champion's calibration/reference.

        ``keep_baseline=True`` (the promotion path) holds the previous
        champion's calibration baseline through the rollback grace
        window, so a successor that makes live traffic *worse* trips
        against its predecessor's steady state instead of quietly
        baselining its own damage.
        """
        t.calibration.reset(keep_baseline=keep_baseline)
        reference = t.manager.champion_reference()
        t.sentinel = (
            None if reference is None else DriftSentinel(reference)
        )

    def _capture_reference(
        self, t: _Tenant, model, day: int
    ) -> DriftReference:
        """Freeze the model's drift reference on a policy-free probe.

        The sentinel compares serving-time observations against this
        snapshot; capturing it on the same organic distribution the
        daily exploration slice draws from means a quiet world keeps
        the sentinel quiet, and only genuine movement registers.
        """
        cfg = self.config
        t_lo = self.t0_hours + day * 24.0
        probe = self._organic_log(
            t, cfg.reference_rows, self._rng(t, day, 6),
            t_lo, t_lo + 24.0, day,
        )
        return DriftReference.capture(
            model, probe, sample=min(1024, len(probe)), seed=cfg.seed
        )

    def _train_candidate(self, t: _Tenant, day: int, correction: str):
        """Fit a fresh model on the censored training window."""
        cfg = self.config
        now = self.t0_hours + (day + 1) * 24.0
        window_start = day - cfg.train_window_days + 1
        # The bootstrap log (day -1) ages out of the window like any
        # other day; keeping pre-drift rows forever would anchor every
        # retrain to the stale world.
        parts = [ds for d, ds in t.log if d >= window_start]
        view = lifecycle_retrain_view(
            t.world,
            InteractionDataset.concat(parts),
            now,
            correction=correction,
            weight_cap=cfg.weight_cap,
        )
        model = t.factory()
        fit_model(model, view, t.train_config)
        reference = self._capture_reference(t, model, day)
        return model, view, reference

    def _record_version(self, t: _Tenant, version: str) -> None:
        t.version_vocab[version] = t.vocab

    def _serve_block(
        self,
        t: _Tenant,
        day: int,
        n_pages: int,
        rng: np.random.Generator,
        serve_fn,
        apply_faults: bool,
    ):
        """Serve ``n_pages`` requests; returns logged arrays + counters."""
        cfg = self.config
        users: List[int] = []
        items: List[np.ndarray] = []
        positions: List[np.ndarray] = []
        clicks: List[np.ndarray] = []
        conversions: List[np.ndarray] = []
        cvrs: List[np.ndarray] = []
        shed = 0
        n_candidates = min(cfg.candidates_per_page, t.active_items)
        for _ in range(n_pages):
            step = t.request_step
            t.request_step += 1
            if apply_faults and t.drill is not None:
                for line in t.drill._apply_faults(step):
                    self._emit(day, t.name, "fault", line)
            t.clock.now += REQUEST_INTERVAL_S
            user = int(rng.integers(0, t.world.config.n_users))
            candidates = rng.choice(
                t.active_items, size=n_candidates, replace=False
            )
            try:
                page, _ = serve_fn(user, candidates, rng)
            except RequestShedError:
                shed += 1
                continue
            outcome = t.behavior.roll_out(user, page, rng)
            users.append(np.full(len(page), user, dtype=np.int64))
            items.append(outcome.items)
            positions.append(outcome.positions)
            clicks.append(outcome.clicks)
            conversions.append(outcome.conversions)
            cvrs.append(outcome.true_cvr)
        if not users:
            return None, shed
        arrays = tuple(
            np.concatenate(part)
            for part in (users, items, positions, clicks, conversions, cvrs)
        )
        return arrays, shed

    def _log_dataset(
        self, t: _Tenant, day: int, arrays, rng: np.random.Generator, tag: str
    ) -> InteractionDataset:
        """Materialise one serving block as a timestamped log slice."""
        users, items, positions, clicks, conversions, cvr = arrays
        world = t.world
        sparse, dense = world.features_for(users, items, positions, rng)
        t_lo = self.t0_hours + day * 24.0
        exposure = np.sort(t_lo + rng.random(len(users)) * 24.0)
        delays = world.sample_conversion_delays(items, rng)
        conv_times = np.where(conversions == 1, exposure + delays, np.nan)
        return InteractionDataset(
            name=f"{t.name}-{tag}{day}",
            schema=world.schema,
            sparse=sparse,
            dense=dense,
            clicks=clicks.astype(np.int64),
            conversions=conversions.astype(np.int64),
            oracle_cvr=cvr,
            exposure_times=exposure,
            conversion_times=conv_times,
        )

    def _quarantine(
        self, t: _Tenant, day: int, dataset: InteractionDataset
    ) -> Tuple[InteractionDataset, Optional[InteractionDataset]]:
        """Quarantine-gate one log slice against the serving vocabulary.

        Rows referencing item ids beyond the vocabulary are held (with
        provenance) rather than dropped, so vocabulary growth can
        re-admit exactly these rows.
        """
        admitted, held, t.quarantine = quarantine_oov_rows(
            dataset, {"item_id": t.vocab}, t.quarantine
        )
        if held is not None:
            t.bump("quarantined", len(held))
            self._emit(
                day, t.name, "quarantine",
                f"held={len(held)} admitted={len(admitted)} "
                "reason=oov_item_id",
            )
        return admitted, held

    def _grow_vocab(self, t: _Tenant, day: int) -> None:
        """Grow the serving vocabulary to cover the active catalog.

        The champion's ``item_id`` embedding grows zero rows in place
        (existing ids score bit-identically), the grown blob is
        re-published through ``adopt`` (registry surgery, not a
        behavioural change), and every replica swaps to it so the new
        catalog is servable immediately.
        """
        old_vocab = t.vocab
        # Load the champion while the factory still builds the *old*
        # schema: a cold registry load must materialise the blob at its
        # stored (pre-growth) shape before the table grows in place.
        champion = t.manager.champion_model()
        t.vocab = t.active_items
        t.factory.schema = _schema_with_item_vocab(t.world.schema, t.vocab)
        champion.embedding.tables["item_id"].grow(t.vocab - old_vocab)
        decision = t.manager.adopt(
            champion,
            reference=t.manager.champion_reference(),
            note=f"day {day}: item vocab {old_vocab}->{t.vocab}",
            reason=f"catalog churn: item vocab {old_vocab}->{t.vocab}",
        )
        self._record_version(t, decision.version)
        t.bump("adopts")
        self._roll_fleet(t)
        self._emit(
            day, t.name, "vocab_grown",
            f"item_vocab {old_vocab}->{t.vocab} "
            f"version={decision.version[:12]}",
        )

    # -- retrain paths --------------------------------------------------
    def _managed_retrain(self, t: _Tenant, day: int, reason: str) -> None:
        cfg = self.config
        t.last_retrain_day = day
        t.bump("retrains")
        model, view, reference = self._train_candidate(t, day, "importance")
        decision = t.manager.submit(
            model,
            t.eval_set,
            train_config=t.train_config,
            reference=reference,
            note=f"day {day} retrain ({reason}); rows={len(view)}",
        )
        self._record_version(t, decision.version)
        self._emit(
            day, t.name, "retrain",
            f"reason={reason} rows={len(view)} -> {decision.action}",
        )
        if decision.action == "reject":
            t.bump("rejections")
            self._emit(
                day, t.name, "gate_reject",
                f"version={decision.version[:12]} {decision.reason}",
            )
            return
        assert decision.action == "stage"
        rollout = t.manager.build_canary(
            t.world,
            fleet=t.fleet,
            page_size=cfg.page_size,
            clock=t.clock,
        )
        rng = self._rng(t, day, 2)
        arrays, shed = self._serve_block(
            t, day, cfg.canary_pages, rng, rollout.serve_page,
            apply_faults=False,
        )
        if arrays is not None:
            canary_log = self._log_dataset(
                t, day, arrays, self._rng(t, day, 3), "canary"
            )
            admitted, _ = self._quarantine(t, day, canary_log)
            t.log.append((day, admitted))
        t.bump("shed", shed)
        verdict = t.manager.conclude_canary(rollout)
        self._emit(
            day, t.name, f"canary_{verdict.action}",
            f"version={verdict.version[:12]} {verdict.reason}",
        )
        if verdict.action == "promote":
            t.bump("promotions")
            t.prev_champion = t.fleet.version
            t.promoted_day = day
            self._roll_fleet(t)
            self._reset_monitors(t, keep_baseline=True)
        else:
            t.bump("demotions")

    def _always_promote_retrain(self, t: _Tenant, day: int) -> None:
        t.last_retrain_day = day
        t.bump("retrains")
        # The strawman's defining sins: no maturation correction
        # (censored conversions train as real negatives) and no
        # gate/canary -- every candidate takes all traffic immediately.
        model, view, reference = self._train_candidate(t, day, "none")
        decision = t.manager.adopt(
            model,
            reference=reference,
            note=f"day {day} blind retrain; rows={len(view)}",
            reason="always_promote cadence",
        )
        self._record_version(t, decision.version)
        t.bump("promotions")
        self._roll_fleet(t)
        self._reset_monitors(t)
        self._emit(
            day, t.name, "retrain",
            f"reason=cadence rows={len(view)} -> adopt",
        )

    def _maybe_rollback(self, t: _Tenant, day: int) -> None:
        """Roll a fresh promotion back when it made live traffic worse."""
        cfg = self.config
        if t.promoted_day is None or t.prev_champion is None:
            return
        age = day - t.promoted_day
        if age > ROLLBACK_GRACE_DAYS:
            # The successor survived its grace window judged against
            # the previous champion's baseline; from here on its own
            # steady-state gap is the reference.
            t.calibration.rebase()
            t.promoted_day = None
            t.prev_champion = None
            return
        if age < 1:
            return
        if t.calibration.n_observed < t.calibration.thresholds.min_samples:
            return
        baseline = t.calibration.baseline or 0.0
        gap = t.calibration.gap()
        if abs(gap) <= abs(baseline):
            # The successor is *better* calibrated than the champion it
            # replaced.  A large drift() here just means the retrain
            # shrank the inherited selection gap -- the desired
            # outcome, never grounds for reverting the promotion.
            return
        if abs(t.calibration.drift()) < ROLLBACK_GAP_TRIP:
            return
        if t.version_vocab.get(t.prev_champion) != t.vocab:
            # The previous champion predates a vocabulary growth; its
            # blob no longer matches the serving schema.
            return
        decision = t.manager.rollback(
            t.prev_champion,
            reason=(
                f"calibration drift {t.calibration.drift():+.3f} "
                f"{age}d after promotion"
            ),
        )
        t.bump("rollbacks")
        self._roll_fleet(t)
        self._reset_monitors(t, keep_baseline=True)
        t.promoted_day = None
        t.prev_champion = None
        self._emit(
            day, t.name, "rollback",
            f"restored={decision.version[:12]} {decision.reason}",
        )

    # -- the day loop ---------------------------------------------------
    def _bootstrap(self) -> None:
        cfg = self.config
        for t in self.tenants:
            rng = self._rng(t, -1, 0)
            bootstrap = self._organic_log(
                t, cfg.bootstrap_rows, rng, 0.0, self.t0_hours, day=-1
            )
            t.log.append((-1, bootstrap))
            self._refresh_eval_set(t, day=-1)
            view = lifecycle_retrain_view(
                t.world, bootstrap, self.t0_hours,
                correction="importance", weight_cap=cfg.weight_cap,
            )
            model = t.factory()
            fit_model(model, view, t.train_config)
            reference = self._capture_reference(t, model, day=-1)
            decision = t.manager.submit(
                model,
                t.eval_set,
                train_config=t.train_config,
                reference=reference,
                note=f"bootstrap on {len(view)} organic rows",
            )
            if decision.action != "bootstrap":
                raise RuntimeError(
                    f"{t.name}: bootstrap submit produced "
                    f"{decision.action!r}: {decision.reason}"
                )
            self._record_version(t, decision.version)
            t.fleet = ServingFleet.from_registry(
                t.registry,
                t.factory,
                t.world,
                cfg.n_replicas,
                policy=FleetPolicy(),
                seed=int(
                    np.random.SeedSequence(
                        [cfg.seed, t.index, 7]
                    ).generate_state(1)[0]
                ),
                clock=t.clock,
                page_size=cfg.page_size,
            )
            if cfg.fault_spec is not None:
                schedule = build_fleet_fault_schedule(
                    cfg.fault_spec,
                    cfg.n_replicas,
                    cfg.days * cfg.pages_per_day,
                    seed=cfg.seed + t.index,
                )
                t.drill = FleetChaosDrill(t.fleet, schedule)
            self._reset_monitors(t)
            self._emit(
                -1, t.name, "bootstrap",
                f"version={decision.version[:12]} rows={len(view)}",
            )

    def _apply_drift(self, t: _Tenant, day: int) -> bool:
        """Fold today's drift events into the tenant's world."""
        due = [e for e in t.events if e.day == day]
        if not due:
            return False
        changed = False
        for event in due:
            self._emit(day, t.name, "drift", event.describe())
            if event.kind == CATALOG_CHURN:
                t.active_items += event.new_items
                changed = True
        if any(e.overrides for e in due):
            t.world = SyntheticScenario(
                config_for_day(t.world_base, t.events, day)
            )
            t.behavior = BehaviorSimulator(t.world)
            changed = True
        return changed

    def _observe(
        self,
        t: _Tenant,
        day: int,
        day_log: InteractionDataset,
        explore_log: Optional[InteractionDataset],
    ):
        """Feed the day's admitted logs to calibration + sentinel.

        Calibration pairs predictions with realised clicks over *all*
        admitted traffic (served + exploration; its auto-baseline
        absorbs the selection offset).  The sentinel only sees the
        policy-free exploration slice: its reference was captured on
        that distribution, so feature/prediction drift it reports is
        world movement, not the serving policy's selection warp.

        Returns ``(calibration_status, sentinel_status, gap, drift)``
        captured *now* -- the day summary reuses these even if a
        promotion later in the day resets the monitors.
        """
        champion = t.manager.champion_model()
        preds = champion.predict(day_log.full_batch())
        t.calibration.observe(preds.ctr, day_log.clicks)
        if (
            t.sentinel is not None
            and explore_log is not None
            and len(explore_log) > 0
        ):
            probe_preds = champion.predict(explore_log.full_batch())
            t.sentinel.observe(
                dense=explore_log.dense,
                o_hat=probe_preds.ctr,
                cvr=probe_preds.cvr,
            )
        calib = t.calibration.status()  # may auto-freeze the baseline
        return (
            calib,
            "none" if t.sentinel is None else t.sentinel.status(),
            t.calibration.gap(),
            t.calibration.drift(),
        )

    def _retrain_reason(
        self, t: _Tenant, day: int, calib: str, sent: str, grew: bool
    ) -> Optional[str]:
        cfg = self.config
        if grew:
            return "catalog_growth"
        if day - t.last_retrain_day < RETRAIN_COOLDOWN_DAYS:
            return None
        if calib == STATUS_TRIP:
            return "calibration_trip"
        if sent == STATUS_TRIP:
            return "sentinel_trip"
        if day > 0 and day % cfg.retrain_every_days == 0:
            return "scheduled"
        return None

    def _day_regret(self, t: _Tenant, day: int) -> Dict[str, float]:
        """Oracle CVR-AUC regret of the end-of-day serving champion."""
        champion = t.manager.champion_model()
        preds = champion.predict(t.eval_set.full_batch())
        labels = t.eval_set.oracle_conversion
        oracle_auc = auc(labels, t.eval_oracle)
        model_auc = auc(labels, preds.cvr)
        return {
            "oracle_auc": float(oracle_auc),
            "model_auc": float(model_auc),
            "regret": float(max(0.0, oracle_auc - model_auc)),
        }

    def run(self) -> MonthReport:
        """Execute the month and return its report."""
        cfg = self.config
        self._build_tenants()
        self._bootstrap()
        for day in range(cfg.days):
            for t in self.tenants:
                world_changed = self._apply_drift(t, day)
                arrays, shed = self._serve_block(
                    t, day, cfg.pages_per_day, self._rng(t, day, 0),
                    t.fleet.serve_page, apply_faults=True,
                )
                t.bump("shed", shed)
                calib = sent = "none"
                gap = drift_gap = 0.0
                served_log = explore_log = None
                held_parts: List[InteractionDataset] = []
                if arrays is not None:
                    served_log, held = self._quarantine(
                        t, day,
                        self._log_dataset(
                            t, day, arrays, self._rng(t, day, 1), "day"
                        ),
                    )
                    if held is not None:
                        held_parts.append(held)
                if cfg.exploration_rows_per_day > 0:
                    t_lo = self.t0_hours + day * 24.0
                    explore_log, held = self._quarantine(
                        t, day,
                        self._organic_log(
                            t, cfg.exploration_rows_per_day,
                            self._rng(t, day, 5), t_lo, t_lo + 24.0, day,
                        ),
                    )
                    if held is not None:
                        held_parts.append(held)
                day_parts = [
                    p for p in (served_log, explore_log)
                    if p is not None and len(p) > 0
                ]
                grew = t.vocab < t.active_items
                if grew:
                    self._grow_vocab(t, day)
                    if held_parts:
                        day_parts.extend(held_parts)
                        self._emit(
                            day, t.name, "readmitted",
                            f"rows={sum(len(h) for h in held_parts)} "
                            "after vocab growth",
                        )
                day_log = (
                    InteractionDataset.concat(day_parts) if day_parts else None
                )
                if day_log is not None:
                    t.log.append((day, day_log))
                    calib, sent, gap, drift_gap = self._observe(
                        t, day, day_log, explore_log
                    )
                if cfg.mode == MANAGED:
                    self._maybe_rollback(t, day)
                    reason = self._retrain_reason(t, day, calib, sent, grew)
                    if reason is not None:
                        self._managed_retrain(t, day, reason)
                elif cfg.mode == ALWAYS_PROMOTE:
                    if day > 0 and day % ALWAYS_RETRAIN_EVERY_DAYS == 0:
                        self._always_promote_retrain(t, day)
                if world_changed or grew:
                    self._refresh_eval_set(t, day)
                regret = self._day_regret(t, day)
                served = 0 if arrays is None else int(
                    len(arrays[0]) // max(1, cfg.page_size)
                )
                row = {
                    "day": day,
                    "tenant": t.name,
                    "served_pages": served,
                    "shed": shed,
                    "calibration": calib,
                    "calibration_gap": round(gap, 6),
                    "calibration_drift": round(drift_gap, 6),
                    "sentinel": sent,
                    "champion": t.manager.champion.version[:12],
                    **regret,
                }
                self.daily.append(row)
                self._emit(
                    day, t.name, "day_summary",
                    f"served={served} shed={shed} calib={calib} "
                    f"drift={row['calibration_drift']:+.4f} sentinel={sent} "
                    f"regret={row['regret']:.4f} "
                    f"champion={row['champion']}",
                )
        for t in self.tenants:
            if t.drill is not None:
                t.drill._restore()
        report = MonthReport(
            mode=cfg.mode,
            seed=cfg.seed,
            days=cfg.days,
            tenants=cfg.tenants,
            events=list(self.events),
            daily=list(self.daily),
            tenant_summary={
                t.name: {
                    "regret": float(
                        sum(
                            r["regret"]
                            for r in self.daily
                            if r["tenant"] == t.name
                        )
                    ),
                    "served": int(t.fleet.stats.served),
                    "fleet_shed": int(t.fleet.stats.fleet_shed),
                    "fallback_pages": int(t.fleet.stats.fleet_fallback_pages),
                    **{k: int(v) for k, v in sorted(t.counters.items())},
                }
                for t in self.tenants
            },
            fleet={t.name: t.fleet.snapshot() for t in self.tenants},
            health_spans={
                t.name: t.fleet.stats.health_spans() for t in self.tenants
            },
        )
        log_event(
            logger,
            "month_complete",
            mode=cfg.mode,
            days=cfg.days,
            tenants=len(cfg.tenants),
            regret=report.total_regret,
        )
        return report


def run_month(
    config: Optional[MonthConfig] = None,
    workdir: "Path | str | None" = None,
) -> MonthReport:
    """One production month under ``config`` (default: managed mode)."""
    return MonthSimulation(config or MonthConfig(), workdir=workdir).run()


def compare_month_policies(
    config: Optional[MonthConfig] = None,
    workdir: "Path | str | None" = None,
) -> MonthComparison:
    """The oracle-regret comparison: managed vs both strawmen.

    All three runs replay the *same* seeded month (identical drift
    schedules, traffic streams, and behaviour draws); only the
    lifecycle policy differs.  The managed system should accumulate
    less oracle CVR-AUC regret than ``never_retrain`` (which decays
    with drift) and ``always_promote`` (which ships maturation-naive
    models trained on censored labels).
    """
    config = config or MonthConfig()
    base = Path(workdir) if workdir is not None else None
    reports: Dict[str, MonthReport] = {}
    for mode in MODES:
        sub = None if base is None else base / mode
        reports[mode] = MonthSimulation(
            replace(config, mode=mode), workdir=sub
        ).run()
    return MonthComparison(reports)
