"""PromotionGate: the shadow review that keeps bad retrains off traffic."""

import numpy as np
import pytest

from repro.lifecycle import GatePolicy, PromotionGate
from repro.reliability.drift import DriftReference

from tests.lifecycle.conftest import perturb

pytestmark = pytest.mark.lifecycle


@pytest.fixture
def gate():
    return PromotionGate(GatePolicy())


class TestSanityChecks:
    def test_equal_candidate_passes_against_itself(
        self, gate, trained_model, world
    ):
        _, test, _ = world
        report = gate.review(trained_model, trained_model, test)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == [
            "finite_parameters",
            "prediction_sanity",
            "propensity_floor",
            "auc_regression",
            "calibration_regression",
            "shadow_drift",
        ]
        assert report.metrics["cvr_auc"] == report.metrics["champion_cvr_auc"]

    def test_nan_parameters_fail_fast(self, gate, clone_model, world):
        _, test, _ = world
        candidate = clone_model()
        candidate.parameters()[0].data[...] = np.nan
        report = gate.review(candidate, None, test)
        assert not report.passed
        # forward passes on NaN weights are pointless; only one check ran
        assert [c.name for c in report.checks] == ["finite_parameters"]
        assert "NaN" in report.failures()[0].detail

    def test_bootstrap_review_skips_comparative_checks(
        self, gate, trained_model, world
    ):
        _, test, _ = world
        report = gate.review(trained_model, None, test)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "auc_regression" not in names
        assert "calibration_regression" not in names

    def test_empty_eval_set_is_refused(self, gate, trained_model, world):
        _, test, _ = world
        with pytest.raises(ValueError, match="empty eval set"):
            gate.review(trained_model, None, test.subset(np.array([], dtype=int)))


class TestRegressionBounds:
    def test_noise_wrecked_candidate_fails_auc_regression(
        self, gate, trained_model, clone_model, world
    ):
        _, test, _ = world
        candidate = perturb(clone_model(), 2.0, seed=7)
        report = gate.review(candidate, trained_model, test)
        if report.passed:  # noise could accidentally help; it must not
            pytest.fail("wrecked candidate passed the gate")
        failed = {c.name for c in report.failures()}
        assert failed & {"auc_regression", "calibration_regression", "shadow_drift"}

    def test_bounds_come_from_policy(self, trained_model, clone_model, world):
        _, test, _ = world
        candidate = perturb(clone_model(), 0.3, seed=7)
        strict = PromotionGate(
            GatePolicy(max_auc_regression=0.0, max_ece_increase=0.0)
        )
        lax = PromotionGate(
            GatePolicy(max_auc_regression=1.0, max_ece_increase=1.0)
        )
        strict_report = strict.review(candidate, trained_model, test)
        lax_report = lax.review(candidate, trained_model, test)
        lax_names = {c.name for c in lax_report.failures()}
        assert "auc_regression" not in lax_names
        assert "calibration_regression" not in lax_names
        # the strict report can only have more failures, never fewer
        assert {c.name for c in strict_report.failures()} >= lax_names

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            GatePolicy(max_auc_regression=-0.1)
        with pytest.raises(ValueError):
            GatePolicy(propensity_floor=1.0)
        with pytest.raises(ValueError):
            GatePolicy(max_collapsed_fraction=0.0)


class TestShadowDrift:
    def test_drift_check_skipped_without_reference(
        self, gate, trained_model, world
    ):
        _, test, _ = world
        report = gate.review(trained_model, trained_model, test, reference=None)
        drift = [c for c in report.checks if c.name == "shadow_drift"][0]
        assert drift.passed
        assert "skipped" in drift.detail

    def test_candidate_matching_reference_passes_drift(
        self, gate, trained_model, world
    ):
        train, test, _ = world
        reference = DriftReference.capture(trained_model, train, seed=0)
        report = gate.review(
            trained_model, trained_model, test, reference=reference
        )
        drift = [c for c in report.checks if c.name == "shadow_drift"][0]
        assert drift.passed

    def test_shifted_candidate_trips_shadow_drift(
        self, trained_model, clone_model, world
    ):
        train, test, _ = world
        reference = DriftReference.capture(trained_model, train, seed=0)
        candidate = perturb(clone_model(), 1.0, seed=11)
        # isolate the drift check from the metric-regression checks
        gate = PromotionGate(
            GatePolicy(max_auc_regression=1.0, max_ece_increase=1.0)
        )
        report = gate.review(candidate, trained_model, test, reference=reference)
        drift = [c for c in report.checks if c.name == "shadow_drift"][0]
        assert not drift.passed
        assert "tripped" in drift.detail

    def test_review_is_deterministic(self, gate, trained_model, world):
        _, test, _ = world
        a = gate.review(trained_model, trained_model, test, seed=0)
        b = gate.review(trained_model, trained_model, test, seed=0)
        assert [(c.name, c.passed) for c in a.checks] == [
            (c.name, c.passed) for c in b.checks
        ]
        assert a.metrics == b.metrics
