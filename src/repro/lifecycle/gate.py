"""Shadow-mode promotion gate: a candidate earns traffic, never assumes it.

Before a retrained model sees a single request, the gate scores it
against the live champion on a policy-free evaluation set and runs four
families of checks:

* **sanity** -- finite parameters and finite, in-range ``[0, 1]``
  predictions (the same contract the serving sanitizer enforces; a
  model that fails it would only ever serve fallbacks);
* **metric regression** -- CVR AUC must not fall more than
  ``max_auc_regression`` below the champion's, and expected calibration
  error must not rise more than ``max_ece_increase`` above it (DCMT's
  ``1/o_hat`` weighting makes calibration rot a first-class failure);
* **propensity floor** -- the candidate's ``o_hat`` distribution must
  not collapse against the clip boundary (IPW variance explosion);
* **shadow drift** -- the candidate's propensity and CVR prediction
  distributions, fed through :class:`~repro.reliability.drift.DriftMonitor`
  against the champion's frozen reference, must not trip.

Every check lands in a :class:`GateReport` with its measured values, so
a refusal is a forensic record, not a boolean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.metrics.classification import expected_calibration_error
from repro.metrics.ranking import auc
from repro.models.base import MultiTaskModel, Predictions
from repro.reliability.drift import (
    STATUS_TRIP,
    DriftMonitor,
    DriftReference,
    DriftThresholds,
)
from repro.utils.logging import get_logger, log_event

logger = get_logger("lifecycle.gate")

#: Rows scored in shadow (the whole eval set when smaller).
SHADOW_SAMPLE = 4096


@dataclass(frozen=True)
class GatePolicy:
    """Regression bounds a candidate must clear to reach the canary."""

    #: Candidate CVR AUC may be at most this much below the champion's.
    max_auc_regression: float = 0.01
    #: Candidate ECE may be at most this much above the champion's.
    max_ece_increase: float = 0.02
    #: Fraction of ``o_hat`` predictions allowed at/below this floor.
    propensity_floor: float = 0.02
    max_collapsed_fraction: float = 0.5
    #: Drift thresholds for the shadow comparison.  ``min_samples=1``
    #: because the shadow batch is one deterministic sample, not a
    #: trickle of live traffic.
    drift: DriftThresholds = field(
        default_factory=lambda: DriftThresholds(min_samples=1)
    )

    def __post_init__(self) -> None:
        if self.max_auc_regression < 0:
            raise ValueError(
                f"max_auc_regression must be >= 0, got {self.max_auc_regression}"
            )
        if self.max_ece_increase < 0:
            raise ValueError(
                f"max_ece_increase must be >= 0, got {self.max_ece_increase}"
            )
        if not 0.0 <= self.propensity_floor < 1.0:
            raise ValueError(
                f"propensity_floor must be in [0, 1), got {self.propensity_floor}"
            )
        if not 0.0 < self.max_collapsed_fraction <= 1.0:
            raise ValueError(
                "max_collapsed_fraction must be in (0, 1], got "
                f"{self.max_collapsed_fraction}"
            )


@dataclass(frozen=True)
class GateCheck:
    """One named check with its measured evidence."""

    name: str
    passed: bool
    detail: str


@dataclass
class GateReport:
    """Everything the gate measured about one candidate."""

    checks: List[GateCheck] = field(default_factory=list)
    #: Candidate metrics measured during the review (AUC, ECE, ...).
    metrics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> List[GateCheck]:
        return [check for check in self.checks if not check.passed]

    def summary(self) -> str:
        if self.passed:
            return f"passed all {len(self.checks)} checks"
        names = ", ".join(c.name for c in self.failures())
        return f"failed: {names}"


class PromotionGate:
    """Runs the shadow review of one candidate against the champion."""

    def __init__(self, policy: Optional[GatePolicy] = None) -> None:
        self.policy = policy or GatePolicy()

    # ------------------------------------------------------------------
    def review(
        self,
        candidate: MultiTaskModel,
        champion: Optional[MultiTaskModel],
        eval_set: InteractionDataset,
        reference: Optional[DriftReference] = None,
        seed: int = 0,
    ) -> GateReport:
        """Shadow-score ``candidate`` and return the full check report.

        ``champion=None`` (bootstrap: nothing is serving yet) skips the
        comparative checks; the sanity and propensity checks still run,
        so even the first model cannot reach traffic emitting NaNs.
        ``reference`` is the champion's frozen training-time
        distribution snapshot; without one the drift check is skipped
        and recorded as such.
        """
        if len(eval_set) == 0:
            raise ValueError("cannot gate a candidate on an empty eval set")
        report = GateReport()
        policy = self.policy

        check = self._check_finite_parameters(candidate)
        report.checks.append(check)
        if not check.passed:
            # Forward passes on NaN weights only smear NaNs further;
            # stop here with the one check that already failed.
            log_event(logger, "gate_review", passed=False, detail=check.detail)
            return report

        subset = self._shadow_subset(eval_set, seed)
        preds = candidate.predict(subset.full_batch())
        report.checks.append(self._check_prediction_sanity(preds))
        report.checks.append(self._check_propensity_mass(preds))

        if report.passed:  # comparative checks need usable predictions
            cvr_auc = auc(subset.conversions, preds.cvr)
            cvr_ece = expected_calibration_error(subset.conversions, preds.cvr)
            report.metrics["cvr_auc"] = cvr_auc
            report.metrics["cvr_ece"] = cvr_ece
            if champion is not None:
                champ_preds = champion.predict(subset.full_batch())
                champ_auc = auc(subset.conversions, champ_preds.cvr)
                champ_ece = expected_calibration_error(
                    subset.conversions, champ_preds.cvr
                )
                report.metrics["champion_cvr_auc"] = champ_auc
                report.metrics["champion_cvr_ece"] = champ_ece
                report.checks.append(
                    GateCheck(
                        "auc_regression",
                        cvr_auc >= champ_auc - policy.max_auc_regression,
                        f"candidate {cvr_auc:.4f} vs champion {champ_auc:.4f} "
                        f"(bound -{policy.max_auc_regression})",
                    )
                )
                report.checks.append(
                    GateCheck(
                        "calibration_regression",
                        cvr_ece <= champ_ece + policy.max_ece_increase,
                        f"candidate ECE {cvr_ece:.4f} vs champion "
                        f"{champ_ece:.4f} (bound +{policy.max_ece_increase})",
                    )
                )
            report.checks.append(self._check_shadow_drift(preds, reference))

        log_event(
            logger,
            "gate_review",
            passed=report.passed,
            detail=report.summary(),
            **{k: round(v, 5) for k, v in report.metrics.items()},
        )
        return report

    # -- individual checks ---------------------------------------------
    def _shadow_subset(
        self, eval_set: InteractionDataset, seed: int
    ) -> InteractionDataset:
        n = len(eval_set)
        if n <= SHADOW_SAMPLE:
            return eval_set
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n, size=SHADOW_SAMPLE, replace=False))
        return eval_set.subset(idx)

    @staticmethod
    def _check_finite_parameters(candidate: MultiTaskModel) -> GateCheck:
        bad = sum(
            int(not np.all(np.isfinite(p.data))) for p in candidate.parameters()
        )
        return GateCheck(
            "finite_parameters",
            bad == 0,
            "all parameters finite"
            if bad == 0
            else f"{bad} parameter tensor(s) contain NaN/inf",
        )

    @staticmethod
    def _check_prediction_sanity(preds: Predictions) -> GateCheck:
        problems = []
        for name, values in (("o_hat", preds.ctr), ("cvr", preds.cvr)):
            values = np.asarray(values)
            if not np.all(np.isfinite(values)):
                problems.append(f"{name}: non-finite predictions")
            elif np.any(values < 0.0) or np.any(values > 1.0):
                problems.append(f"{name}: predictions outside [0, 1]")
        return GateCheck(
            "prediction_sanity",
            not problems,
            "; ".join(problems) or "predictions finite and in [0, 1]",
        )

    def _check_propensity_mass(self, preds: Predictions) -> GateCheck:
        floor = self.policy.propensity_floor
        collapsed = float(np.mean(np.asarray(preds.ctr) <= floor))
        return GateCheck(
            "propensity_floor",
            collapsed <= self.policy.max_collapsed_fraction,
            f"{collapsed:.1%} of o_hat at or below {floor} "
            f"(bound {self.policy.max_collapsed_fraction:.0%})",
        )

    def _check_shadow_drift(
        self, preds: Predictions, reference: Optional[DriftReference]
    ) -> GateCheck:
        if reference is None:
            return GateCheck(
                "shadow_drift", True, "skipped: no champion drift reference"
            )
        tripped = []
        for name, ref, values in (
            ("propensity", reference.propensity, preds.ctr),
            ("cvr", reference.cvr, preds.cvr),
        ):
            monitor = DriftMonitor(
                ref, self.policy.drift, window=max(len(np.asarray(values)), 1)
            )
            monitor.observe(values)
            snap = monitor.snapshot()
            if snap["status"] == STATUS_TRIP:
                tripped.append(
                    f"{name} (psi={snap['psi']:.3f}, ks={snap['ks']:.3f})"
                )
        return GateCheck(
            "shadow_drift",
            not tripped,
            "tripped: " + ", ".join(tripped)
            if tripped
            else "shadow distributions within reference",
        )
