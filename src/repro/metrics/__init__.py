"""Evaluation metrics.

* :mod:`repro.metrics.ranking` -- AUC (the paper's offline metric,
  Section IV-A3) and grouped AUC.
* :mod:`repro.metrics.classification` -- log-loss, calibration.
* :mod:`repro.metrics.causal` -- the risk estimators of Section II
  (ideal/naive/IPW/DR) and their biases, used to verify the paper's
  analysis numerically.
* :mod:`repro.metrics.stats` -- bootstrap confidence intervals and
  two-proportion tests for the online A/B experiment (Table V).
"""

from repro.metrics.ranking import auc, grouped_auc
from repro.metrics.classification import (
    expected_calibration_error,
    log_loss,
    prediction_summary,
)
from repro.metrics.causal import (
    dr_risk,
    ideal_risk,
    ipw_risk,
    log_loss_elementwise,
    naive_risk,
)
from repro.metrics.stats import (
    bootstrap_mean_ci,
    relative_lift,
    two_proportion_test,
)

__all__ = [
    "auc",
    "grouped_auc",
    "log_loss",
    "expected_calibration_error",
    "prediction_summary",
    "log_loss_elementwise",
    "ideal_risk",
    "naive_risk",
    "ipw_risk",
    "dr_risk",
    "bootstrap_mean_ci",
    "relative_lift",
    "two_proportion_test",
]
