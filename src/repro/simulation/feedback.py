"""Closed-loop training: the policy-feedback experiment.

Production CVR systems retrain on logs produced by their *own* serving
policy, so exposure bias compounds round over round -- a mechanism the
single-shot offline protocol (Table IV) and the fixed-model A/B test
(Table V) both miss, and one plausible source of the paper's production
gains that a stationary simulator cannot show.

:class:`FeedbackLoopExperiment` runs that loop for one model family:

1. round 0 trains on an organically logged exposure set (the scenario's
   Zipf logging policy);
2. each subsequent round serves pages with the current model, logs the
   served impressions with their outcomes, appends them to the training
   pool, and retrains from scratch;
3. after every round the model is evaluated on a *fixed, policy-free*
   test set (uniform random exposure), so degradation or improvement
   across rounds is attributable to the data the policy collected.

When a :class:`~repro.lifecycle.manager.ModelLifecycleManager` is
attached, step 2 stops trusting the fresh retrain blindly: the model is
published to the registry, shadow-reviewed by the promotion gate
against the serving champion, and -- if it passes -- staged on a canary
slice of the very serving round that logs the next pool of training
data.  Only a candidate that survives both gates takes over as
champion; rejected or demoted retrains leave the previous champion
serving, and the round is evaluated on whatever model actually holds
the traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.synthetic import SyntheticScenario
from repro.lifecycle.manager import ModelLifecycleManager
from repro.metrics.ranking import auc
from repro.models.base import MultiTaskModel
from repro.reliability.drift import DriftReference
from repro.reliability.errors import RequestShedError
from repro.simulation.behavior import BehaviorSimulator
from repro.simulation.serving import RankingService
from repro.training import TrainConfig, fit_model
from repro.utils.logging import get_logger

logger = get_logger("simulation.feedback")


@dataclass(frozen=True)
class FeedbackConfig:
    """Shape of the closed loop."""

    rounds: int = 3
    pages_per_round: int = 600
    candidates_per_page: int = 30
    page_size: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.page_size > self.candidates_per_page:
            raise ValueError("page_size cannot exceed candidates_per_page")


@dataclass
class RoundMetrics:
    """Evaluation after one feedback round."""

    round_index: int
    cvr_auc: float
    cvr_auc_do: Optional[float]
    training_rows: int
    logged_ctr: float
    #: Registry version actually serving after this round (lifecycle
    #: mode only; ``None`` in the unmanaged loop).
    champion_version: Optional[str] = None
    #: Pages refused by admission control during this round's serving.
    shed_pages: int = 0

    def as_row(self) -> List[object]:
        return [
            self.round_index,
            self.training_rows,
            self.logged_ctr,
            self.cvr_auc,
            self.cvr_auc_do if self.cvr_auc_do is not None else float("nan"),
        ]


class FeedbackLoopExperiment:
    """Runs the closed training/serving loop for one model factory."""

    def __init__(
        self,
        scenario: SyntheticScenario,
        model_factory: Callable[[], MultiTaskModel],
        train_config: TrainConfig,
        config: Optional[FeedbackConfig] = None,
        lifecycle: Optional[ModelLifecycleManager] = None,
    ) -> None:
        self.scenario = scenario
        self.model_factory = model_factory
        self.train_config = train_config
        self.config = config or FeedbackConfig()
        self.behavior = BehaviorSimulator(scenario)
        #: Optional lifecycle manager; when set, every retrain passes
        #: the promotion gate and a canary slice before taking traffic.
        self.lifecycle = lifecycle

    # ------------------------------------------------------------------
    def _log_served_round(
        self,
        serve_page: Callable[..., Tuple[np.ndarray, np.ndarray]],
        rng: np.random.Generator,
    ) -> Tuple[Optional[InteractionDataset], int]:
        """Serve one round through ``serve_page``; log it as training data.

        Returns the logged dataset (``None`` if every page was shed) and
        the number of shed pages.  ``serve_page`` is either a plain
        :meth:`RankingService.serve_page` or a canary rollout's
        arm-routing equivalent.
        """
        cfg = self.config
        n_users = self.scenario.config.n_users
        n_items = self.scenario.config.n_items
        users_col: List[np.ndarray] = []
        items_col: List[np.ndarray] = []
        positions_col: List[np.ndarray] = []
        clicks_col: List[np.ndarray] = []
        conversions_col: List[np.ndarray] = []
        shed = 0
        for _ in range(cfg.pages_per_round):
            user = int(rng.integers(0, n_users))
            candidates = rng.choice(
                n_items, size=cfg.candidates_per_page, replace=False
            )
            try:
                page, _ = serve_page(user, candidates, rng)
            except RequestShedError:
                shed += 1
                continue
            outcome = self.behavior.roll_out(user, page, rng)
            users_col.append(np.full(len(page), user))
            items_col.append(page)
            positions_col.append(outcome.positions)
            clicks_col.append(outcome.clicks)
            conversions_col.append(outcome.conversions)
        if not users_col:
            return None, shed
        return (
            self._build_dataset(
                np.concatenate(users_col),
                np.concatenate(items_col),
                np.concatenate(positions_col),
                np.concatenate(clicks_col),
                np.concatenate(conversions_col),
                rng,
            ),
            shed,
        )

    def _build_dataset(
        self, users, items, positions, clicks, conversions, rng
    ) -> InteractionDataset:
        sparse, dense = self.scenario.features_for(users, items, positions, rng)
        return InteractionDataset(
            name=f"{self.scenario.config.name}_served",
            schema=self.scenario.schema,
            sparse=sparse,
            dense=dense,
            clicks=clicks,
            conversions=conversions,
        )

    # ------------------------------------------------------------------
    def run(
        self, initial_log: InteractionDataset, test_set: InteractionDataset
    ) -> List[RoundMetrics]:
        """Run the loop; returns per-round evaluation on ``test_set``."""
        rng = np.random.default_rng(self.config.seed)
        # Strip oracle/action columns from the organic log so every pool
        # entry has a homogeneous shape.
        pool: List[InteractionDataset] = [
            self._build_dataset(
                initial_log.sparse["user_id"],
                initial_log.sparse["item_id"],
                initial_log.sparse["position"],
                initial_log.clicks,
                initial_log.conversions,
                rng,
            )
        ]
        results: List[RoundMetrics] = []
        for round_index in range(self.config.rounds):
            training = InteractionDataset.concat(pool)
            model = self.model_factory()
            fit_model(model, training, self.train_config)
            serving_model = model
            champion_version: Optional[str] = None
            shed = 0
            wants_pool = round_index < self.config.rounds - 1

            if self.lifecycle is None:
                if wants_pool:
                    service = RankingService(
                        model, self.scenario, page_size=self.config.page_size
                    )
                    served, shed = self._log_served_round(
                        service.serve_page, rng
                    )
                    if served is not None:
                        pool.append(served)
            else:
                reference = DriftReference.capture(
                    model, training, seed=self.config.seed
                )
                decision = self.lifecycle.submit(
                    model,
                    test_set,
                    train_config=self.train_config,
                    reference=reference,
                    note=f"feedback round {round_index}",
                )
                staged = self.lifecycle.staged_version is not None
                # A staged candidate earns (or loses) the champion slot
                # on the canary slice of this round's serving traffic;
                # the final round still canaries so no candidate ends
                # the run undecided, its log simply feeds no retrain.
                if staged:
                    rollout = self.lifecycle.build_canary(
                        self.scenario, page_size=self.config.page_size
                    )
                    served, shed = self._log_served_round(
                        rollout.serve_page, rng
                    )
                    self.lifecycle.conclude_canary(rollout)
                elif wants_pool:
                    champion_model = self.lifecycle.champion_model()
                    service = RankingService(
                        champion_model or model,
                        self.scenario,
                        page_size=self.config.page_size,
                    )
                    served, shed = self._log_served_round(
                        service.serve_page, rng
                    )
                else:
                    served = None
                if wants_pool and served is not None:
                    pool.append(served)
                champion = self.lifecycle.champion
                if champion is not None:
                    champion_version = champion.version
                    serving_model = self.lifecycle.champion_model() or model
                logger.info(
                    "round %d lifecycle: %s -> %s (champion=%s)",
                    round_index,
                    decision.version,
                    self.lifecycle.decisions[-1].action,
                    champion_version,
                )

            preds = serving_model.predict(test_set.full_batch())
            cvr_auc = auc(test_set.conversions, preds.cvr)
            cvr_auc_do = (
                auc(test_set.oracle_conversion, preds.cvr)
                if test_set.has_oracle
                else None
            )
            results.append(
                RoundMetrics(
                    round_index=round_index,
                    cvr_auc=cvr_auc,
                    cvr_auc_do=cvr_auc_do,
                    training_rows=len(training),
                    logged_ctr=float(training.ctr),
                    champion_version=champion_version,
                    shed_pages=shed,
                )
            )
            logger.info(
                "round %d: rows=%d cvr_auc=%.4f",
                round_index,
                len(training),
                cvr_auc,
            )
        return results


# ----------------------------------------------------------------------
# Delayed conversion feedback
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DelayedFeedbackConfig:
    """Shape of the delayed-feedback retrain cycle.

    Each round ``r`` observes the log at
    ``T_r = initial_log_age_hours + r * round_interval_hours`` (hours on
    the log's clock) and retrains on the *censored-as-of-``T_r``* view:
    conversions that have not yet been attributed look like negatives
    (the delayed-feedback flavour of the paper's fake-negative problem).

    ``correction``:

    * ``"none"``  -- the censored-naive baseline: trust the censored
      labels as-is;
    * ``"importance"`` -- importance-weight each *observed* conversion
      by ``1 / P(delay <= elapsed)`` (capped at ``weight_cap``), the
      inverse of its maturation probability, so early-arriving
      conversions stand in for their still-censored siblings.  Weights
      ride :attr:`repro.data.dataset.Batch.weights` into the
      weight-aware losses (DCMT's SNIPS terms, click-space BCE).
    """

    rounds: int = 2
    round_interval_hours: float = 24.0
    initial_log_age_hours: float = 0.0
    correction: str = "importance"
    weight_cap: float = 20.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.round_interval_hours <= 0:
            raise ValueError("round_interval_hours must be > 0")
        if self.initial_log_age_hours < 0:
            raise ValueError("initial_log_age_hours must be >= 0")
        if self.correction not in ("none", "importance"):
            raise ValueError(
                f"correction must be 'none' or 'importance', "
                f"got {self.correction!r}"
            )
        if self.weight_cap <= 1.0:
            raise ValueError(f"weight_cap must be > 1, got {self.weight_cap}")


def delayed_feedback_weights(
    scenario: SyntheticScenario,
    view: InteractionDataset,
    now: float,
    weight_cap: float,
) -> np.ndarray:
    """Per-row importance weights for a censored-as-of-``now`` view.

    Observed positives get ``min(1 / P(delay <= now - exposure),
    weight_cap)`` -- the inverse-maturation correction -- and every
    other row weight 1.  Uses the scenario's oracle delay CDF; a real
    system would fit the delay distribution from matured cohorts.
    """
    items = view.sparse["item_id"]
    elapsed = now - view.exposure_times
    p_mature = scenario.conversion_delay_cdf(items, elapsed)
    weights = np.ones(len(view), dtype=np.float64)
    observed = view.conversions == 1
    with np.errstate(divide="ignore"):
        inverse = np.where(p_mature > 0, 1.0 / np.maximum(p_mature, 1e-12), weight_cap)
    weights[observed] = np.minimum(inverse[observed], weight_cap)
    return weights


def lifecycle_retrain_view(
    scenario: SyntheticScenario,
    log: InteractionDataset,
    now: float,
    *,
    correction: str = "importance",
    weight_cap: float = 20.0,
) -> InteractionDataset:
    """The training view a lifecycle retrain should fit on at time ``now``.

    This is the delayed-feedback correction wired into the retrain
    path proper: the log is censored to what an observer at ``now``
    has actually seen (unmatured conversions look negative), and --
    under ``correction="importance"`` -- every observed conversion is
    importance-weighted by its inverse maturation probability so the
    early arrivals stand in for their still-censored siblings.  The
    weights ride :attr:`repro.data.dataset.Batch.weights` into the
    weight-aware losses.  ``correction="none"`` is the censored-naive
    strawman (train on the censored labels as-is).
    """
    if correction not in ("none", "importance"):
        raise ValueError(
            f"correction must be 'none' or 'importance', got {correction!r}"
        )
    view = log.censored_as_of(now)
    if correction == "importance":
        weights = delayed_feedback_weights(scenario, view, now, weight_cap)
        view = replace(view, weights=weights)
    return view


class DelayedFeedbackExperiment:
    """Retrain rounds over an aging, censored conversion log.

    Takes a *complete* timestamped log (generated with conversion
    delays enabled) and replays the production situation: at each
    round's observation time only the conversions that have matured are
    visible.  Per round a fresh model trains on that censored view --
    optionally with the importance-weighting correction -- and is
    scored against the fixed oracle-labelled test set, so the delayed-
    feedback damage and the correction's recovery are measured on
    ground truth (``cvr_auc_do``).
    """

    def __init__(
        self,
        scenario: SyntheticScenario,
        model_factory: Callable[[], MultiTaskModel],
        train_config: TrainConfig,
        config: Optional[DelayedFeedbackConfig] = None,
    ) -> None:
        if not scenario.config.has_delays:
            raise ValueError(
                "DelayedFeedbackExperiment needs a delay-enabled scenario "
                "(conversion_delay_mean_hours > 0)"
            )
        self.scenario = scenario
        self.model_factory = model_factory
        self.train_config = train_config
        self.config = config or DelayedFeedbackConfig()

    def censored_view(
        self, log: InteractionDataset, now: float
    ) -> InteractionDataset:
        """The training view for observation time ``now`` (weights set
        per the configured correction)."""
        return lifecycle_retrain_view(
            self.scenario,
            log,
            now,
            correction=self.config.correction,
            weight_cap=self.config.weight_cap,
        )

    def run(
        self, log: InteractionDataset, test_set: InteractionDataset
    ) -> List[RoundMetrics]:
        """Run the retrain rounds; per-round metrics on ``test_set``."""
        cfg = self.config
        results: List[RoundMetrics] = []
        for round_index in range(cfg.rounds):
            now = cfg.initial_log_age_hours + (round_index + 1) * (
                cfg.round_interval_hours
            )
            view = self.censored_view(log, now)
            model = self.model_factory()
            fit_model(model, view, self.train_config)
            preds = model.predict(test_set.full_batch())
            cvr_auc = auc(test_set.conversions, preds.cvr)
            cvr_auc_do = (
                auc(test_set.oracle_conversion, preds.cvr)
                if test_set.has_oracle
                else None
            )
            results.append(
                RoundMetrics(
                    round_index=round_index,
                    cvr_auc=cvr_auc,
                    cvr_auc_do=cvr_auc_do,
                    training_rows=len(view),
                    logged_ctr=float(view.ctr),
                )
            )
            logger.info(
                "delayed round %d: now=%.1fh observed_cvr=%.4f "
                "cvr_auc_do=%s correction=%s",
                round_index,
                now,
                view.cvr_given_click,
                f"{cvr_auc_do:.4f}" if cvr_auc_do is not None else "n/a",
                cfg.correction,
            )
        return results
