"""Loss guard detection logic."""

import numpy as np
import pytest

from repro.reliability import LossGuard, LossGuardConfig

pytestmark = pytest.mark.robustness


class TestLossGuard:
    def test_nan_and_inf_always_trip(self):
        guard = LossGuard()
        assert guard.check(float("nan")) == "non_finite_loss"
        assert guard.check(float("inf")) == "non_finite_loss"
        assert guard.check(1.0) is None

    def test_spike_needs_history(self):
        guard = LossGuard(LossGuardConfig(min_history=8, z_threshold=4.0))
        # Too little history: even a huge value passes as "no verdict".
        assert guard.check(1e9) is None

    def test_spike_detected_after_warmup(self):
        guard = LossGuard(LossGuardConfig(min_history=8, z_threshold=4.0))
        rng = np.random.default_rng(0)
        for _ in range(20):
            guard.record(1.0 + 0.01 * rng.random())
        assert guard.check(1.005) is None
        assert guard.check(50.0) == "loss_spike"

    def test_anomalies_do_not_poison_window(self):
        guard = LossGuard(LossGuardConfig(min_history=4, z_threshold=4.0))
        for value in [1.0, 1.01, 0.99, 1.0, 1.02]:
            assert guard.observe(value) is None
        assert guard.observe(99.0) == "loss_spike"
        # The spike was rejected, so the same spike trips again.
        assert guard.observe(99.0) == "loss_spike"
        assert guard.trips == 2
        assert guard.observe(1.0) is None

    def test_declining_loss_never_trips(self):
        guard = LossGuard()
        for value in np.linspace(2.0, 0.5, 100):
            assert guard.observe(float(value)) is None
        assert guard.trips == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossGuardConfig(window=1)
        with pytest.raises(ValueError):
            LossGuardConfig(z_threshold=0.0)
        with pytest.raises(ValueError):
            LossGuardConfig(lr_factor=1.5)
        with pytest.raises(ValueError):
            LossGuardConfig(max_trips=0)

