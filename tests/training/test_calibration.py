"""Tests for Platt scaling."""

import numpy as np
import pytest

from repro.metrics import expected_calibration_error
from repro.training.calibration import PlattScaler


def miscalibrated_world(n=20_000, seed=0, inflate=2.0):
    """True probabilities p; predictions systematically inflated in
    logit space (the Fig. 7 pathology)."""
    rng = np.random.default_rng(seed)
    true_p = rng.uniform(0.02, 0.6, n)
    labels = (rng.random(n) < true_p).astype(float)
    logits = np.log(true_p / (1 - true_p))
    raw = 1.0 / (1.0 + np.exp(-(logits + inflate)))
    return raw, labels, true_p


class TestPlatt:
    def test_reduces_ece(self):
        raw, labels, _ = miscalibrated_world()
        scaler = PlattScaler().fit(raw[:10_000], labels[:10_000])
        calibrated = scaler.transform(raw[10_000:])
        before = expected_calibration_error(labels[10_000:], raw[10_000:])
        after = expected_calibration_error(labels[10_000:], calibrated)
        assert after < before * 0.5

    def test_recovers_shift(self):
        raw, labels, _ = miscalibrated_world(inflate=1.5)
        scaler = PlattScaler().fit(raw, labels)
        # the world's distortion is logit + 1.5, so b should be ~-1.5
        assert abs(scaler.a - 1.0) < 0.15
        assert abs(scaler.b + 1.5) < 0.25

    def test_preserves_ranking(self):
        raw, labels, _ = miscalibrated_world(n=3000)
        scaler = PlattScaler().fit(raw, labels)
        calibrated = scaler.transform(raw)
        assert np.all(np.diff(calibrated[np.argsort(raw)]) >= -1e-12)

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            PlattScaler().transform(np.array([0.5]))

    def test_degenerate_labels(self):
        with pytest.raises(ValueError):
            PlattScaler().fit(np.array([0.1, 0.2]), np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PlattScaler().fit(np.array([0.1]), np.array([1.0, 0.0]))


class TestOnModelPredictions:
    def test_calibrating_dcmt_cvr(self):
        """End-to-end: calibrate a trained model's CVR over D against
        observed conversions."""
        from repro.data import load_scenario
        from repro.models import ModelConfig, build_model
        from repro.training import TrainConfig, fit_model

        train, test, _ = load_scenario(
            "ae_es", n_users=60, n_items=80, n_train=6000, n_test=3000
        )
        model = build_model(
            "esmm", train.schema, ModelConfig(embedding_dim=4, hidden_sizes=(8,))
        )
        fit_model(
            model, train, TrainConfig(epochs=2, batch_size=512, learning_rate=0.01)
        )
        val_preds = model.predict(train.full_batch()).cvr
        test_preds = model.predict(test.full_batch()).cvr
        scaler = PlattScaler().fit(val_preds, train.conversions)
        calibrated = scaler.transform(test_preds)
        before = expected_calibration_error(test.conversions, test_preds)
        after = expected_calibration_error(test.conversions, calibrated)
        assert after <= before + 0.01  # never substantially worse
