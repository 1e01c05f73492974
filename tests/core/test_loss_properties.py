"""Property-based tests (hypothesis) on the DCMT loss invariances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd.tensor import Tensor
from repro.core.losses import dcmt_cvr_loss, snips_weights
from repro.core.strategies import counterfactual_targets

probs = st.floats(min_value=0.05, max_value=0.95)
N = 16


def prob_arrays():
    return arrays(np.float64, (N,), elements=probs)


def click_arrays():
    return arrays(np.int64, (N,), elements=st.integers(min_value=0, max_value=1))


@settings(max_examples=40, deadline=None)
@given(clicks=click_arrays(), propensity=prob_arrays())
def test_snips_groups_normalised(clicks, propensity):
    w_f, w_cf = snips_weights(clicks, propensity)
    if clicks.sum() > 0:
        assert np.isclose(w_f.sum(), 1.0)
    if clicks.sum() < N:
        assert np.isclose(w_cf.sum(), 1.0)
    assert np.all(w_f >= 0)
    assert np.all(w_cf >= 0)


@settings(max_examples=40, deadline=None)
@given(
    clicks=click_arrays(),
    propensity=prob_arrays(),
    scale=st.floats(min_value=0.3, max_value=3.0),
)
def test_snips_invariant_to_propensity_rescaling(clicks, propensity, scale):
    """Self-normalisation removes the propensity *scale*: multiplying
    all propensities by a constant (inside the clip range) leaves the
    normalised weights unchanged."""
    scaled = np.clip(propensity * scale, 0.06, 0.94)
    reference = np.clip(propensity, 0.06, 0.94)
    if not np.allclose(scaled / reference, scaled[0] / reference[0]):
        return  # clipping broke proportionality; property not applicable
    w_ref, _ = snips_weights(clicks, reference, floor=0.05)
    w_scaled, _ = snips_weights(clicks, scaled, floor=0.05)
    assert np.allclose(w_ref, w_scaled, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    cvr=prob_arrays(),
    cvr_cf=prob_arrays(),
    clicks=click_arrays(),
    propensity=prob_arrays(),
)
def test_dcmt_loss_nonnegative_and_finite(cvr, cvr_cf, clicks, propensity):
    conversions = clicks * 0  # worst case: no conversions at all
    loss = dcmt_cvr_loss(
        Tensor(cvr), Tensor(cvr_cf), clicks, conversions, propensity, lambda1=1.0
    )
    assert np.isfinite(loss.item())
    assert loss.item() >= 0.0


@settings(max_examples=40, deadline=None)
@given(
    cvr=prob_arrays(),
    clicks=click_arrays(),
    propensity=prob_arrays(),
    lam=st.floats(min_value=0.0, max_value=5.0),
)
def test_regularizer_monotone_in_lambda(cvr, clicks, propensity, lam):
    """With a fixed prior violation, the loss is non-decreasing in
    lambda1."""
    cvr_cf = np.clip(1.0 - cvr + 0.2, 0.05, 0.95)  # violates the prior
    conversions = np.zeros(N, dtype=np.int64)
    lo = dcmt_cvr_loss(
        Tensor(cvr), Tensor(cvr_cf), clicks, conversions, propensity, lambda1=lam
    )
    hi = dcmt_cvr_loss(
        Tensor(cvr),
        Tensor(cvr_cf),
        clicks,
        conversions,
        propensity,
        lambda1=lam + 1.0,
    )
    assert hi.item() >= lo.item() - 1e-12


@settings(max_examples=40, deadline=None)
@given(r_hat=prob_arrays())
def test_strategy_labels_are_probabilities(r_hat):
    conversions = np.zeros(N, dtype=np.int64)
    for strategy in ("mirror", "smoothed", "self_imputed", "confidence_gated"):
        labels, scale = counterfactual_targets(strategy, conversions, r_hat)
        assert np.all((labels >= 0) & (labels <= 1))
        assert np.all(scale >= 0)


@settings(max_examples=40, deadline=None)
@given(r_hat=prob_arrays())
def test_self_imputed_complements_factual(r_hat):
    """The self-imputed counterfactual label is exactly the complement
    of the factual prediction -- the regularizer's fixed point."""
    labels, _ = counterfactual_targets(
        "self_imputed", np.zeros(N, dtype=np.int64), r_hat
    )
    assert np.allclose(labels + r_hat, 1.0)
