"""Numerical verification of Theorem III.1 and its fine print."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.theory import (
    counterfactual_identity_gap,
    dcmt_risk,
    stochastic_propensity_scaling,
    theorem_iii1_bias,
)
from repro.metrics.causal import ideal_risk


def make_world(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    cvr_true = rng.uniform(0.05, 0.6, n)
    propensity = rng.uniform(0.1, 0.8, n)
    potential = (rng.random(n) < cvr_true).astype(float)
    cvr_pred = np.clip(cvr_true + rng.normal(0, 0.08, n), 0.02, 0.98)
    return rng, propensity, potential, cvr_pred


class TestCounterfactualIdentity:
    def test_identity_holds(self, rng):
        labels = (rng.random(100) < 0.3).astype(float)
        preds = rng.uniform(0.05, 0.95, 100)
        assert counterfactual_identity_gap(labels, preds) < 1e-9


#: ``dcmt_risk`` clips propensities to ``[1e-12, 1 - 1e-12]``.  Under the
#: theorem's conditions that scales every term of the DCMT risk by
#: ``1 / (1 - 1e-12)``, so the bias is at most ``1e-12 / (1 - 1e-12)``
#: times the largest per-row loss, ``-log(1e-6)`` for predictions in
#: ``(1e-6, 1 - 1e-6)``.  Twice that bound is the tolerance, fixed
#: before the property was first run.  It does not hold: in floating
#: point the mirrored prediction ``1 - (1 - r_hat)`` is off by up to
#: ``2**-53``, a relative error of about ``1e-10`` at ``r_hat = 1e-6``.
CLIP = 1e-12
PRED_LOW = 1e-6
THEOREM_TOLERANCE = 2 * CLIP / (1 - CLIP) * -math.log(PRED_LOW)

_rows = st.integers(min_value=1, max_value=64)


@st.composite
def _theorem_inputs(draw):
    n = draw(_rows)
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    clicks = np.array(draw(bits), dtype=float)
    potential = np.array(draw(bits), dtype=float)
    preds = np.array(
        draw(
            st.lists(
                st.floats(
                    min_value=PRED_LOW,
                    max_value=1 - PRED_LOW,
                    exclude_min=True,
                    exclude_max=True,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    return clicks, potential, preds


class TestTheorem:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the float mirror 1 - (1 - r_hat) breaks the clip-derived "
        "tolerance: bias 6.7e-11 > 2.8e-11 at r_hat = 1.006e-6, a "
        "non-click with r(do(o=1)) = 1",
    )
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_theorem_inputs())
    @example((np.array([0.0]), np.array([1.0]), np.array([1.005922930339912e-06])))
    def test_zero_bias_property(self, inputs):
        """Theorem III.1 under its literal conditions, for any clicks,
        potential labels and predictions in ``(1e-6, 1 - 1e-6)``."""
        clicks, potential, preds = inputs
        assert theorem_iii1_bias(clicks, potential, preds) <= THEOREM_TOLERANCE

    def test_zero_bias_under_exact_conditions(self):
        """o = o_hat (degenerate propensities) and r_hat* = 1 - r_hat
        -> the DCMT risk equals the ground-truth risk identically."""
        rng, propensity, potential, cvr_pred = make_world()
        for _ in range(5):
            clicks = (rng.random(len(propensity)) < propensity).astype(float)
            assert theorem_iii1_bias(clicks, potential, cvr_pred) < 1e-9

    def test_stochastic_propensities_double_the_risk(self):
        """With oracle *stochastic* propensities the DCMT risk converges
        to exactly twice the ground truth (minimiser-consistent)."""
        rng, propensity, potential, cvr_pred = make_world(seed=1)
        ratio = stochastic_propensity_scaling(
            potential, cvr_pred, propensity, rng, n_rounds=600
        )
        assert abs(ratio - 2.0) < 0.05

    def test_biased_with_wrong_propensities(self):
        """Condition 1 violated -> the factor-2 scaling breaks."""
        rng, propensity, potential, cvr_pred = make_world(seed=2)
        wrong = np.clip(propensity * 0.4, 0.02, 0.98)
        risks = []
        cvr_cf = 1.0 - cvr_pred
        for _ in range(400):
            clicks = (rng.random(len(propensity)) < propensity).astype(float)
            risks.append(dcmt_risk(clicks, potential, cvr_pred, cvr_cf, wrong))
        ratio = np.mean(risks) / ideal_risk(potential, cvr_pred)
        assert abs(ratio - 2.0) > 0.2

    def test_biased_without_counterfactual_prior(self):
        """Condition 2 violated (r_hat* != 1 - r_hat) under degenerate
        propensities -> bias appears."""
        rng, propensity, potential, cvr_pred = make_world(seed=3)
        clicks = (rng.random(len(propensity)) < propensity).astype(float)
        saturated_cf = np.full_like(cvr_pred, 0.95)
        risk = dcmt_risk(clicks, potential, cvr_pred, saturated_cf, propensity=clicks)
        truth = ideal_risk(potential, cvr_pred)
        assert abs(risk - truth) > 0.02

    def test_fake_negatives_break_the_theorem(self):
        """Replacing the true potential outcomes in N with the observed
        all-zero labels reintroduces bias: the fake-negative problem the
        counterfactual regularizer is designed to soften."""
        rng, propensity, potential, cvr_pred = make_world(seed=5)
        clicks = (rng.random(len(propensity)) < propensity).astype(float)
        observed = clicks * potential  # zeros in N, some of them fake
        cvr_cf = 1.0 - cvr_pred
        risk = dcmt_risk(clicks, observed, cvr_pred, cvr_cf, propensity=clicks)
        truth = ideal_risk(potential, cvr_pred)
        assert abs(risk - truth) > 0.02

    def test_regularizer_term_adds_nonnegative(self):
        rng, propensity, potential, cvr_pred = make_world(seed=4)
        clicks = (rng.random(len(propensity)) < propensity).astype(float)
        observed = clicks * potential
        cvr_cf = np.full_like(cvr_pred, 0.5)
        base = dcmt_risk(clicks, observed, cvr_pred, cvr_cf, propensity, lambda1=0.0)
        with_reg = dcmt_risk(
            clicks, observed, cvr_pred, cvr_cf, propensity, lambda1=1.0
        )
        assert with_reg >= base
