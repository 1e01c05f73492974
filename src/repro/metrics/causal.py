"""Risk estimators and their biases (Section II of the paper).

These are *numpy evaluation* versions of the training losses: given
full potential-outcome labels (available from the synthetic oracle) and
a model's predictions, they compute

* the ideal (ground-truth) risk over ``D`` (Eq. (1)),
* the naive click-space risk (Eq. (2)),
* the IPW risk (Eq. (5)),
* the doubly-robust risk (Eq. (6)),

whose bias w.r.t. the ideal risk (Definition II.1) is
``|estimate - ideal|``.  The test-suite uses them to verify the
paper's claims numerically: IPW is
unbiased with oracle propensities, DR is unbiased when either the
propensities or the imputed errors are exact, and the naive estimator
is biased whenever data is MNAR.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def log_loss_elementwise(labels: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-sample binary log-loss ``e(r, r_hat)``."""
    y = np.asarray(labels, dtype=float)
    p = np.clip(np.asarray(probs, dtype=float), _EPS, 1.0 - _EPS)
    return -(y * np.log(p) + (1 - y) * np.log(1 - p))


def ideal_risk(potential_labels: np.ndarray, cvr_pred: np.ndarray) -> float:
    """Eq. (1): mean log-loss over ``D`` with fully observed labels."""
    return float(log_loss_elementwise(potential_labels, cvr_pred).mean())


def naive_risk(
    clicks: np.ndarray, labels: np.ndarray, cvr_pred: np.ndarray
) -> float:
    """Eq. (2): mean log-loss over the click space ``O`` only."""
    o = np.asarray(clicks, dtype=float)
    n_clicked = o.sum()
    if n_clicked == 0:
        raise ValueError("naive risk undefined with zero clicks")
    errors = log_loss_elementwise(labels, cvr_pred)
    return float((o * errors).sum() / n_clicked)


def ipw_risk(
    clicks: np.ndarray,
    labels: np.ndarray,
    cvr_pred: np.ndarray,
    propensities: np.ndarray,
) -> float:
    """Eq. (5): inverse-propensity-weighted risk, normalised by |D|."""
    o = np.asarray(clicks, dtype=float)
    p = np.clip(np.asarray(propensities, dtype=float), _EPS, 1.0)
    errors = log_loss_elementwise(labels, cvr_pred)
    return float((o * errors / p).mean())


def dr_risk(
    clicks: np.ndarray,
    labels: np.ndarray,
    cvr_pred: np.ndarray,
    propensities: np.ndarray,
    imputed_errors: np.ndarray,
) -> float:
    """Eq. (6): doubly-robust risk with imputed errors ``e_hat``."""
    o = np.asarray(clicks, dtype=float)
    p = np.clip(np.asarray(propensities, dtype=float), _EPS, 1.0)
    e_hat = np.asarray(imputed_errors, dtype=float)
    errors = log_loss_elementwise(labels, cvr_pred)
    delta = errors - e_hat
    return float((e_hat + o * delta / p).mean())
