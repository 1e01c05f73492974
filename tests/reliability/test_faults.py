"""Fault injector: determinism and invariant preservation."""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.reliability import FaultInjector, FaultSpec

pytestmark = pytest.mark.robustness


@pytest.fixture(scope="module")
def batch():
    train, _, _ = load_scenario(
        "ae_es", n_users=30, n_items=40, n_train=600, n_test=100
    )
    return train.subset(np.arange(128)).full_batch()


SPEC = FaultSpec(
    nan_feature_rate=0.5,
    drop_row_rate=0.5,
    zero_click_rate=0.3,
    label_flip_rate=0.5,
)


class TestDeterminism:
    def test_same_seed_same_corruption(self, batch):
        a = FaultInjector(SPEC, seed=7).corrupt(batch, epoch=1, index=4)
        b = FaultInjector(SPEC, seed=7).corrupt(batch, epoch=1, index=4)
        assert a.size == b.size
        assert np.array_equal(a.clicks, b.clicks)
        assert np.array_equal(a.conversions, b.conversions)
        for key in a.dense:
            assert np.array_equal(a.dense[key], b.dense[key], equal_nan=True)

    def test_different_positions_differ(self, batch):
        injector = FaultInjector(SPEC, seed=7)
        a = injector.corrupt(batch, epoch=0, index=0)
        b = injector.corrupt(batch, epoch=0, index=1)
        same = a.size == b.size and all(
            np.array_equal(a.dense[k], b.dense[k], equal_nan=True) for k in a.dense
        )
        assert not same

    def test_order_independence(self, batch):
        """Corruption at (epoch, index) does not depend on call order --
        the property that keeps resumed runs identical."""
        forward = FaultInjector(SPEC, seed=3)
        backward = FaultInjector(SPEC, seed=3)
        f = [forward.corrupt(batch, 0, i) for i in range(4)]
        b = [backward.corrupt(batch, 0, i) for i in reversed(range(4))]
        for got, expected in zip(f, reversed(b)):
            assert got.size == expected.size
            assert np.array_equal(got.conversions, expected.conversions)


class TestMutators:
    def test_original_batch_untouched(self, batch):
        before = {k: v.copy() for k, v in batch.dense.items()}
        clicks_before = batch.clicks.copy()
        FaultInjector(SPEC, seed=0).corrupt(batch, 0, 0)
        for key in before:
            assert np.array_equal(batch.dense[key], before[key])
        assert np.array_equal(batch.clicks, clicks_before)

    def test_nan_features(self, batch, rng):
        out = FaultInjector.nan_features(batch, fraction=0.25, rng=rng)
        for key in out.dense:
            nan_rows = np.isnan(out.dense[key]).any(axis=-1) if out.dense[key].ndim > 1 else np.isnan(out.dense[key])
            assert nan_rows.sum() > 0

    def test_drop_rows(self, batch, rng):
        out = FaultInjector.drop_rows(batch, fraction=0.25, rng=rng)
        assert 0 < out.size < batch.size
        for key in out.sparse:
            assert len(out.sparse[key]) == out.size

    def test_zero_clicks_keeps_invariant(self, batch):
        out = FaultInjector.zero_clicks(batch)
        assert out.clicks.sum() == 0
        assert out.conversions.sum() == 0

    def test_flip_labels_only_in_click_space(self, batch, rng):
        out = FaultInjector.flip_labels(batch, fraction=0.5, rng=rng)
        # Invariant: no conversions outside the click space.
        assert not np.any((out.conversions == 1) & (out.clicks == 0))
        # And something actually flipped (the fixture batch has clicks).
        assert batch.clicks.sum() > 0
        assert not np.array_equal(out.conversions, batch.conversions)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(nan_feature_rate=1.5)

    def test_fault_log(self, batch):
        injector = FaultInjector(
            FaultSpec(nan_feature_rate=1.0, zero_click_rate=1.0), seed=0
        )
        injector.corrupt(batch, epoch=2, index=5)
        kinds = {record.kind for record in injector.log}
        assert kinds == {"nan_features", "zero_clicks"}
        assert all((r.epoch, r.batch) == (2, 5) for r in injector.log)
