"""The A/B test harness (Table V protocol).

Users are hashed into one bucket per model; every day each bucket
serves a fixed number of page views; the three business metrics are

* **PV-CTR**  -- clicks per served impression;
* **PV-CVR**  -- conversions per served impression;
* **Top-5 PV-CVR** -- conversions per impression among the first five
  display positions ("a maximum of 5 services can be displayed on one
  screen", Section IV-A3).

(The paper normalises by page views; we normalise by impressions --
a fixed multiple of page views -- because impression-level proportions
avoid the ceiling effect that page-level "any click" indicators hit in
a high-CTR service-search world.)

Per-day and overall relative lifts vs the base bucket are computed with
a two-proportion z-test at 95% confidence, mirroring the pink/green
significance shading of Table V.  The z-test treats impressions as
independent, a mild approximation given within-page correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.data.synthetic import SyntheticScenario
from repro.metrics.stats import LiftResult, two_proportion_test
from repro.models.base import MultiTaskModel
from repro.reliability.errors import RequestShedError
from repro.simulation.behavior import BehaviorSimulator
from repro.simulation.serving import RankingService
from repro.utils.hashing import stable_bucket
from repro.utils.logging import get_logger

logger = get_logger("simulation")

METRICS = ("pv_ctr", "pv_cvr", "top5_pv_cvr")
#: Display positions counted by Top-5 PV-CVR (one screen, Section IV-A3).
TOP_K = 5


@dataclass(frozen=True)
class ABTestConfig:
    """Experiment shape: 7 days x page views, candidate pool size."""

    days: int = 7
    page_views_per_day: int = 2000
    candidates_per_page: int = 30
    page_size: int = 10
    #: User behaviour mode: "independent" per-impression clicks, or
    #: "single_choice" (at most one click per page).
    behavior_mode: str = "independent"
    #: Bucket assignment: "round_robin" (user id modulo bucket count,
    #: the historical default) or "hash" (salted SHA-256 bucketing via
    #: :func:`repro.utils.hashing.stable_bucket`, the same primitive the
    #: canary rollout splits traffic with -- stable under bucket
    #: renames and reproducible across processes).
    assignment: str = "round_robin"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.days < 1 or self.page_views_per_day < 1:
            raise ValueError("days and page_views_per_day must be positive")
        if self.page_size > self.candidates_per_page:
            raise ValueError("page_size cannot exceed candidates_per_page")
        if self.page_size < TOP_K:
            raise ValueError(f"page_size cannot be below TOP_K ({TOP_K})")
        if self.assignment not in ("round_robin", "hash"):
            raise ValueError(
                "assignment must be 'round_robin' or 'hash', "
                f"got {self.assignment!r}"
            )


@dataclass
class BucketDay:
    """Raw counts for one bucket on one day."""

    page_views: int = 0
    impressions: int = 0
    top_impressions: int = 0
    clicks: int = 0
    conversions: int = 0
    top_conversions: int = 0
    #: Page requests refused by the bucket's serving stack (fleet or
    #: service load shedding); a shed page contributes no impressions.
    shed_pages: int = 0

    def trials(self, metric: str) -> int:
        return {
            "pv_ctr": self.impressions,
            "pv_cvr": self.impressions,
            "top5_pv_cvr": self.top_impressions,
        }[metric]

    def successes(self, metric: str) -> int:
        return {
            "pv_ctr": self.clicks,
            "pv_cvr": self.conversions,
            "top5_pv_cvr": self.top_conversions,
        }[metric]

    def rate(self, metric: str) -> float:
        return self.successes(metric) / max(self.trials(metric), 1)


@dataclass
class ABTestResult:
    """All bucket-day counts plus the day-1 prediction log (Fig. 7)."""

    base_bucket: str
    days: Dict[str, List[BucketDay]]
    day1_cvr_predictions: Dict[str, np.ndarray]
    day1_true_cvr: Dict[str, np.ndarray]
    day1_clicks: Dict[str, np.ndarray]

    # ------------------------------------------------------------------
    def daily_lift(self, bucket: str, metric: str, day: int) -> LiftResult:
        """Relative lift of ``bucket`` vs the base bucket on one day."""
        treat = self.days[bucket][day]
        control = self.days[self.base_bucket][day]
        return two_proportion_test(
            treat.successes(metric),
            treat.trials(metric),
            control.successes(metric),
            control.trials(metric),
        )

    def overall_lift(self, bucket: str, metric: str) -> LiftResult:
        """Relative lift pooled over all days."""
        treat_s = sum(d.successes(metric) for d in self.days[bucket])
        treat_n = sum(d.trials(metric) for d in self.days[bucket])
        base_s = sum(d.successes(metric) for d in self.days[self.base_bucket])
        base_n = sum(d.trials(metric) for d in self.days[self.base_bucket])
        return two_proportion_test(treat_s, treat_n, base_s, base_n)

    def posterior_cvr(self, space: str = "D") -> float:
        """Average true CVR over day-1 impressions, pooled buckets.

        ``space`` selects the entire impression space ``D``, the clicked
        space ``O`` or the unclicked space ``N`` (Fig. 7 reference lines).
        """
        values = np.concatenate(list(self.day1_true_cvr.values()))
        clicks = np.concatenate(list(self.day1_clicks.values()))
        if space == "D":
            return float(values.mean())
        if space == "O":
            return float(values[clicks == 1].mean())
        if space == "N":
            return float(values[clicks == 0].mean())
        raise ValueError(f"space must be 'D', 'O' or 'N', got {space!r}")


class ABTest:
    """Runs the bucketed online experiment."""

    def __init__(
        self,
        models: Dict[str, MultiTaskModel],
        scenario: SyntheticScenario,
        base_bucket: str,
        config: Optional[ABTestConfig] = None,
        services: Optional[Dict[str, object]] = None,
    ) -> None:
        if base_bucket not in models:
            raise KeyError(f"base bucket {base_bucket!r} not among models")
        if len(models) < 2:
            raise ValueError("an A/B test needs at least two buckets")
        self.config = config or ABTestConfig()
        self.scenario = scenario
        self.base_bucket = base_bucket
        if services is not None:
            # Caller-built serving stacks -- anything serve_page-shaped
            # works, including a ServingFleet per bucket, so the Table V
            # protocol can run against a replicated fleet instead of a
            # single service.
            if set(services) != set(models):
                raise ValueError(
                    "services keys must match model buckets: "
                    f"{sorted(services)} vs {sorted(models)}"
                )
            self.services = dict(services)
        else:
            # Every bucket shares the base bucket's CTR estimate (the
            # paper's deployment: buckets differ only in the CVR
            # estimator; the production CTR model feeding the ranking
            # formula is common).
            ctr_provider = models[base_bucket]
            self.services = {
                name: RankingService(
                    model,
                    scenario,
                    page_size=self.config.page_size,
                    ctr_provider=ctr_provider,
                )
                for name, model in models.items()
            }
        self.behavior = BehaviorSimulator(scenario, mode=self.config.behavior_mode)
        # Disjoint user assignment: round-robin (modulo) or salted hash.
        names = sorted(models)
        n_users = scenario.config.n_users
        if self.config.assignment == "hash":
            buckets = np.array(
                [
                    stable_bucket(u, len(names), salt=self.config.seed)
                    for u in range(n_users)
                ]
            )
            self._bucket_users = {
                name: np.arange(n_users)[buckets == i]
                for i, name in enumerate(names)
            }
        else:
            self._bucket_users = {
                name: np.arange(n_users)[np.arange(n_users) % len(names) == i]
                for i, name in enumerate(names)
            }
        empty = [n for n, u in self._bucket_users.items() if len(u) == 0]
        if empty:
            raise ValueError(
                f"bucket(s) {empty} received no users; increase n_users "
                "or change the assignment seed"
            )

    # ------------------------------------------------------------------
    def run(self) -> ABTestResult:
        """Roll out the full experiment; returns counts and day-1 logs."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        days = {name: [BucketDay() for _ in range(cfg.days)] for name in self.services}
        day1_preds = {name: [] for name in self.services}
        day1_true = {name: [] for name in self.services}
        day1_clicks = {name: [] for name in self.services}

        n_items = self.scenario.config.n_items
        for day in range(cfg.days):
            for name, service in self.services.items():
                users = self._bucket_users[name]
                record = days[name][day]
                for _ in range(cfg.page_views_per_day):
                    user = int(users[rng.integers(0, len(users))])
                    candidates = rng.choice(
                        n_items, size=cfg.candidates_per_page, replace=False
                    )
                    try:
                        page, cvr_pred = service.serve_page(
                            user, candidates, rng
                        )
                    except RequestShedError:
                        # A shed page is a real production outcome, not
                        # an experiment failure: count it and move on.
                        record.shed_pages += 1
                        continue
                    outcome = self.behavior.roll_out(user, page, rng)
                    top = outcome.positions < TOP_K
                    record.page_views += 1
                    record.impressions += len(page)
                    record.top_impressions += int(top.sum())
                    record.clicks += int(outcome.clicks.sum())
                    record.conversions += int(outcome.conversions.sum())
                    record.top_conversions += int(outcome.conversions[top].sum())
                    if day == 0:
                        day1_preds[name].append(cvr_pred)
                        day1_true[name].append(outcome.true_cvr)
                        day1_clicks[name].append(outcome.clicks)
            logger.debug("day %d complete", day)

        return ABTestResult(
            base_bucket=self.base_bucket,
            days=days,
            day1_cvr_predictions={
                k: np.concatenate(v) for k, v in day1_preds.items()
            },
            day1_true_cvr={k: np.concatenate(v) for k, v in day1_true.items()},
            day1_clicks={k: np.concatenate(v) for k, v in day1_clicks.items()},
        )
