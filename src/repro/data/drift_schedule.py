"""Seeded per-tenant drift schedules for the production-month simulator.

A deployed CVR system never serves the distribution it trained on for
long: the world underneath it moves (the non-stationarity failure mode
the Twitter entire-space analysis warns about -- see PAPERS.md).  This
module turns that statement into a *deterministic, typed schedule* of
world changes that :mod:`repro.simulation.month` replays against the
six Table II tenants:

* ``ctr_season`` -- a seasonal swing of the marginal click rate
  (weekend lulls, promo spikes): ``target_ctr`` is rescaled on a sine
  with a tenant-specific seeded phase;
* ``position_bias_shift`` -- a logging-policy change: the UI team
  ships a new layout and ``position_bias`` jumps, so the exposure
  propensities every IPW weight was calibrated against are suddenly
  wrong *in a way the features do show* (position is observed);
* ``catalog_churn`` -- new items enter the catalog: the logs start
  carrying item ids beyond the serving vocabulary, stressing the OOV
  quarantine gate, in-place embedding growth, and (for compiled
  training plans) the param-rebind re-trace path;
* ``confounder_shift`` -- the silent one: ``hidden_confounder_click``
  / ``hidden_confounder_conversion`` change mid-month.  The observable
  feature distribution and the model's prediction distribution both
  stay put -- only realised behaviour against the model's calibrated
  expectations moves, which is why the month simulator pairs its
  feature-space :class:`~repro.reliability.drift.DriftSentinel` with a
  label-aware :class:`~repro.reliability.drift.CalibrationMonitor`.

Every event is a pure description: ``overrides`` to fold into the
tenant's :class:`~repro.data.synthetic.ScenarioConfig` (rebuilding the
scenario recalibrates intercepts but never re-draws latent vectors, so
the user/item world stays fixed across drift), plus ``new_items`` for
catalog churn, which the simulator maps to vocabulary growth rather
than a config change.  Schedules are derived from
``np.random.SeedSequence([seed, tenant_index])`` streams only --
bit-identical across runs, independent across tenants, and stable
under reordering of the tenant list (the index is the tenant's
position in the *sorted* tenant names).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.data.synthetic import ScenarioConfig

#: Drift event kinds, in the order they are emitted for one day.
CTR_SEASON = "ctr_season"
POSITION_BIAS_SHIFT = "position_bias_shift"
CATALOG_CHURN = "catalog_churn"
CONFOUNDER_SHIFT = "confounder_shift"

DRIFT_KINDS = (
    CTR_SEASON,
    POSITION_BIAS_SHIFT,
    CATALOG_CHURN,
    CONFOUNDER_SHIFT,
)


@dataclass(frozen=True)
class DriftEvent:
    """One scheduled world change for one tenant.

    ``overrides`` are :meth:`ScenarioConfig.with_overrides` kwargs to
    apply from ``day`` onward; ``new_items`` (catalog churn only) is
    the number of item ids appended to the tenant's active catalog.
    """

    day: int
    tenant: str
    kind: str
    overrides: Mapping[str, float] = field(default_factory=dict)
    new_items: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ValueError(
                f"unknown drift kind {self.kind!r}; choose from {DRIFT_KINDS}"
            )
        if self.day < 0:
            raise ValueError(f"day must be >= 0, got {self.day}")
        if self.new_items < 0:
            raise ValueError(f"new_items must be >= 0, got {self.new_items}")

    def describe(self) -> str:
        """A deterministic one-line rendering for the month transcript."""
        parts = [
            f"{k}={self.overrides[k]:.4f}" for k in sorted(self.overrides)
        ]
        if self.new_items:
            parts.append(f"new_items={self.new_items}")
        return f"{self.kind}({', '.join(parts)})"


# Shape of a tenant's month of drift.  Day indices are offsets into
# the month (day 0 is the first served day).  The three one-shot events
# are drawn uniformly inside their windows from the tenant's seeded
# stream; the seasonal swing is a deterministic sine re-emitted every
# ``SEASON_STEP_DAYS``.

#: Seasonal CTR swing: period, relative amplitude, and how often a new
#: override is emitted (every day would recalibrate scenario intercepts
#: daily for little narrative gain).
SEASON_PERIOD_DAYS = 7
SEASON_AMPLITUDE = 0.25
SEASON_STEP_DAYS = 2
#: The month length the event windows below are laid out on; shorter
#: or longer months scale them (see :func:`_clip_window`).
WINDOW_MONTH_DAYS = 28
#: Logging-policy change window (inclusive day range) and the
#: multiplier range for ``position_bias``.
POSITION_BIAS_WINDOW = (4, 10)
POSITION_BIAS_FACTOR = (1.4, 1.9)
#: Catalog churn window and the churn size as a fraction of the base
#: catalog.
CATALOG_CHURN_WINDOW = (8, 14)
CATALOG_CHURN_FRACTION = (0.08, 0.15)
#: Confounder shift window (second half of the month) and the
#: multiplier range applied to both hidden confounder strengths.
CONFOUNDER_WINDOW = (15, 21)
CONFOUNDER_FACTOR = (2.2, 3.0)


def _clip_window(window: Tuple[int, int], days: int) -> Tuple[int, int]:
    """``window`` scaled from a ``WINDOW_MONTH_DAYS`` month into ``days``.

    Short test months keep every event kind in play: windows that
    would fall off the end are pulled in proportionally.
    """
    lo, hi = window
    scale = days / WINDOW_MONTH_DAYS
    lo = min(int(lo * scale), days - 1)
    hi = min(int(hi * scale), days - 1)
    return lo, max(lo, hi)


def _draw_day(rng: np.random.Generator, window: Tuple[int, int]) -> int:
    lo, hi = window
    return int(rng.integers(lo, hi + 1))


def _draw_factor(
    rng: np.random.Generator, bounds: Tuple[float, float]
) -> float:
    lo, hi = bounds
    return float(lo + (hi - lo) * rng.random())


def build_drift_schedule(
    tenants: Sequence[str],
    base_configs: Mapping[str, ScenarioConfig],
    seed: int,
    days: int,
) -> Dict[str, List[DriftEvent]]:
    """Derive every tenant's ``days``-day month of drift, deterministically.

    Each tenant draws from its own ``SeedSequence([seed, index])``
    stream (index = position among the *sorted* tenant names), so
    adding or removing a tenant never perturbs the others' schedules.
    Events for one tenant are returned sorted by ``(day, kind)``.
    """
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    order = {name: i for i, name in enumerate(sorted(tenants))}
    schedule: Dict[str, List[DriftEvent]] = {}
    for tenant in tenants:
        base = base_configs[tenant]
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, order[tenant]])
        )
        events: List[DriftEvent] = []

        # Seasonal CTR swing: sine with a seeded per-tenant phase,
        # re-emitted every SEASON_STEP_DAYS from day 1 (day 0 is the
        # calibrated baseline the initial model trained on).
        phase = float(rng.random()) * 2.0 * math.pi
        for day in range(1, days, SEASON_STEP_DAYS):
            swing = SEASON_AMPLITUDE * math.sin(
                2.0 * math.pi * day / SEASON_PERIOD_DAYS + phase
            )
            target = base.target_ctr * (1.0 + swing)
            target = min(max(target, 1e-4), 0.99)
            events.append(
                DriftEvent(
                    day=day,
                    tenant=tenant,
                    kind=CTR_SEASON,
                    overrides={"target_ctr": round(target, 6)},
                )
            )

        # Logging-policy change: position bias jumps once.
        pb_day = _draw_day(rng, _clip_window(POSITION_BIAS_WINDOW, days))
        pb_factor = _draw_factor(rng, POSITION_BIAS_FACTOR)
        events.append(
            DriftEvent(
                day=pb_day,
                tenant=tenant,
                kind=POSITION_BIAS_SHIFT,
                overrides={
                    "position_bias": round(
                        min(base.position_bias * pb_factor, 3.0), 6
                    )
                },
            )
        )

        # Catalog churn: new item ids enter the world.
        churn_day = _draw_day(rng, _clip_window(CATALOG_CHURN_WINDOW, days))
        churn_frac = _draw_factor(rng, CATALOG_CHURN_FRACTION)
        events.append(
            DriftEvent(
                day=churn_day,
                tenant=tenant,
                kind=CATALOG_CHURN,
                new_items=max(1, int(round(base.n_items * churn_frac))),
            )
        )

        # The silent propensity breaker: both hidden confounder
        # strengths scale up mid-month.
        conf_day = _draw_day(rng, _clip_window(CONFOUNDER_WINDOW, days))
        conf_factor = _draw_factor(rng, CONFOUNDER_FACTOR)
        events.append(
            DriftEvent(
                day=conf_day,
                tenant=tenant,
                kind=CONFOUNDER_SHIFT,
                overrides={
                    "hidden_confounder_click": round(
                        base.hidden_confounder_click * conf_factor, 6
                    ),
                    "hidden_confounder_conversion": round(
                        base.hidden_confounder_conversion * conf_factor, 6
                    ),
                },
            )
        )

        events.sort(key=lambda e: (e.day, e.kind))
        schedule[tenant] = events
    return schedule


def config_for_day(
    base: ScenarioConfig, events: Sequence[DriftEvent], day: int
) -> ScenarioConfig:
    """Fold every override due by ``day`` (inclusive) into ``base``.

    Later events win field-by-field; ``catalog_churn`` events carry no
    config overrides (the simulator applies them as vocabulary growth)
    so they fold to a no-op here.
    """
    overrides: Dict[str, float] = {}
    for event in sorted(events, key=lambda e: (e.day, e.kind)):
        if event.day <= day and event.overrides:
            overrides.update(event.overrides)
    return base.with_overrides(**overrides) if overrides else base
