"""Numerical verification of the paper's Section II estimator analysis.

These tests build a fully observed synthetic world (potential-outcome
labels for every exposure) and check, over many Monte-Carlo click
realisations, that:

* the naive click-space risk is biased under MNAR (Eq. (3));
* the IPW risk with oracle propensities is unbiased (Eq. (5));
* the DR risk is unbiased when either the propensities or the imputed
  errors are exact (Eq. (6)) -- the "doubly robust" property.
"""

import numpy as np
import pytest

from repro.metrics.causal import (
    dr_risk,
    ideal_risk,
    ipw_risk,
    log_loss_elementwise,
    naive_risk,
)


def bias(estimated_risk, true_risk):
    """Definition II.1: ``|E_O(risk) - ideal risk|`` for one realisation."""
    return abs(estimated_risk - true_risk)


def make_world(n=4000, seed=0, mnar=True):
    """A small world with known propensities and potential outcomes.

    When ``mnar=True`` the click propensity is correlated with the
    conversion probability (selection bias); otherwise clicks are
    missing completely at random.
    """
    rng = np.random.default_rng(seed)
    cvr = rng.uniform(0.05, 0.6, size=n)
    if mnar:
        propensity = np.clip(0.1 + 0.8 * cvr, 0.05, 0.9)
    else:
        propensity = np.full(n, 0.3)
    potential = (rng.random(n) < cvr).astype(float)
    cvr_pred = np.clip(cvr + rng.normal(0, 0.1, n), 0.01, 0.99)  # imperfect model
    return rng, cvr, propensity, potential, cvr_pred


def monte_carlo_risks(risk_fn, n_rounds=300, seed=1, **world_kwargs):
    rng, cvr, propensity, potential, cvr_pred = make_world(seed=seed, **world_kwargs)
    values = []
    for _ in range(n_rounds):
        clicks = (rng.random(len(cvr)) < propensity).astype(float)
        if clicks.sum() == 0:
            continue
        values.append(risk_fn(clicks, potential, cvr_pred, propensity))
    return np.mean(values), ideal_risk(potential, cvr_pred)


class TestElementwiseLoss:
    def test_matches_formula(self):
        e = log_loss_elementwise(np.array([1.0, 0.0]), np.array([0.25, 0.25]))
        assert np.isclose(e[0], -np.log(0.25))
        assert np.isclose(e[1], -np.log(0.75))

    def test_clipping(self):
        assert np.all(np.isfinite(log_loss_elementwise(np.ones(2), np.array([0.0, 1.0]))))


class TestNaiveBias:
    def test_biased_under_mnar(self):
        mean_naive, truth = monte_carlo_risks(
            lambda o, r, pred, p: naive_risk(o, r, pred), mnar=True
        )
        assert bias(mean_naive, truth) > 0.02

    def test_unbiased_under_mcar(self):
        mean_naive, truth = monte_carlo_risks(
            lambda o, r, pred, p: naive_risk(o, r, pred), mnar=False
        )
        assert bias(mean_naive, truth) < 0.01

    def test_zero_clicks_raise(self):
        with pytest.raises(ValueError):
            naive_risk(np.zeros(3), np.ones(3), np.full(3, 0.5))


class TestIPW:
    def test_unbiased_with_oracle_propensities(self):
        mean_ipw, truth = monte_carlo_risks(ipw_risk, mnar=True)
        assert bias(mean_ipw, truth) < 0.01

    def test_biased_with_wrong_propensities(self):
        def wrong_ipw(o, r, pred, p):
            return ipw_risk(o, r, pred, np.clip(p * 2.5, 0.05, 0.99))

        mean_ipw, truth = monte_carlo_risks(wrong_ipw, mnar=True)
        assert bias(mean_ipw, truth) > 0.05


class TestDoublyRobust:
    def test_unbiased_with_oracle_propensities_bad_imputation(self):
        def dr(o, r, pred, p):
            bad_imputation = np.full(len(r), 0.9)  # nonsense e_hat
            return dr_risk(o, r, pred, p, bad_imputation)

        mean_dr, truth = monte_carlo_risks(dr, mnar=True)
        assert bias(mean_dr, truth) < 0.01

    def test_unbiased_with_bad_propensities_oracle_imputation(self):
        rng, cvr, propensity, potential, cvr_pred = make_world(seed=7)
        # Oracle imputation: expected per-sample log-loss under true CVR.
        e_true = cvr * log_loss_elementwise(
            np.ones_like(cvr), cvr_pred
        ) + (1 - cvr) * log_loss_elementwise(np.zeros_like(cvr), cvr_pred)
        values = []
        for _ in range(400):
            clicks = (rng.random(len(cvr)) < propensity).astype(float)
            wrong_p = np.clip(propensity * 0.4, 0.02, 0.99)
            values.append(dr_risk(clicks, potential, cvr_pred, wrong_p, e_true))
        truth = float(e_true.mean())
        assert bias(np.mean(values), truth) < 0.02

    def test_biased_when_both_wrong(self):
        def dr(o, r, pred, p):
            wrong_p = np.clip(p * 0.3, 0.02, 0.99)
            bad_imputation = np.full(len(r), 0.9)
            return dr_risk(o, r, pred, wrong_p, bad_imputation)

        mean_dr, truth = monte_carlo_risks(dr, mnar=True)
        assert bias(mean_dr, truth) > 0.05
