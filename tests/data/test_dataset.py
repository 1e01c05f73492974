"""Tests for InteractionDataset invariants, space splits and concat."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.data.schema import FeatureSchema, SparseFeature


def tiny_dataset(clicks, conversions, oracle_conversion=None):
    n = len(clicks)
    schema = FeatureSchema(sparse=[SparseFeature("user_id", 100)])
    return InteractionDataset(
        name="tiny",
        schema=schema,
        sparse={"user_id": np.arange(n)},
        dense={},
        clicks=np.asarray(clicks),
        conversions=np.asarray(conversions),
        oracle_ctr=None if oracle_conversion is None else np.full(n, 0.5),
        oracle_cvr=None if oracle_conversion is None else np.full(n, 0.3),
        oracle_conversion=(
            None if oracle_conversion is None else np.asarray(oracle_conversion)
        ),
    )


class TestInvariants:
    def test_conversion_requires_click(self):
        with pytest.raises(ValueError, match="behaviour path"):
            tiny_dataset([0, 1], [1, 0])

    def test_oracle_consistency_inside_click_space(self):
        with pytest.raises(ValueError, match="agree with observed"):
            tiny_dataset([1, 0], [1, 0], oracle_conversion=[0, 1])

    def test_oracle_can_disagree_outside_click_space(self):
        # potential conversion on an unclicked exposure: the fake
        # negative the paper's counterfactual mechanism targets.
        ds = tiny_dataset([1, 0], [1, 0], oracle_conversion=[1, 1])
        assert ds.has_oracle

    def test_column_length_mismatch(self):
        schema = FeatureSchema(sparse=[SparseFeature("user_id", 10)])
        with pytest.raises(ValueError, match="length"):
            InteractionDataset(
                name="bad",
                schema=schema,
                sparse={"user_id": np.arange(3)},
                dense={},
                clicks=np.array([0, 1]),
                conversions=np.array([0, 0]),
            )

    def test_oracle_length_mismatch(self):
        schema = FeatureSchema(sparse=[SparseFeature("user_id", 10)])
        with pytest.raises(ValueError, match="oracle"):
            InteractionDataset(
                name="bad",
                schema=schema,
                sparse={"user_id": np.arange(2)},
                dense={},
                clicks=np.array([0, 1]),
                conversions=np.array([0, 0]),
                oracle_ctr=np.array([0.5]),
            )


class TestDerivedQuantities:
    def test_counts_and_rates(self):
        ds = tiny_dataset([1, 1, 0, 0], [1, 0, 0, 0])
        assert ds.n_exposures == 4
        assert ds.n_clicks == 2
        assert ds.n_conversions == 1
        assert ds.ctr == 0.5
        assert ds.cvr_given_click == 0.5

    def test_click_space_subset(self):
        ds = tiny_dataset([1, 0, 1, 0], [0, 0, 1, 0])
        o = ds.click_space()
        assert o.n_exposures == 2
        assert np.all(o.clicks == 1)
        assert o.n_conversions == 1

    def test_non_click_space(self):
        ds = tiny_dataset([1, 0, 1, 0], [0, 0, 1, 0])
        n = ds.non_click_space()
        assert n.n_exposures == 2
        assert np.all(n.clicks == 0)
        assert n.n_conversions == 0

    def test_subset_preserves_oracle(self):
        ds = tiny_dataset([1, 0], [1, 0], oracle_conversion=[1, 1])
        sub = ds.subset(np.array([1]))
        assert sub.oracle_conversion.tolist() == [1]

    def test_full_batch(self):
        ds = tiny_dataset([1, 0], [0, 0])
        batch = ds.full_batch()
        assert batch.size == 2
        assert "user_id" in batch.sparse

    def test_len(self):
        assert len(tiny_dataset([1, 0, 0], [0, 0, 0])) == 3


class TestConcat:
    def weighted(self, clicks, conversions, oracle_conversion, weights):
        return replace(
            tiny_dataset(clicks, conversions, oracle_conversion=oracle_conversion),
            weights=np.asarray(weights, dtype=float),
            actions=np.asarray(clicks),
        )

    def test_weights_and_oracle_columns_survive(self):
        a = self.weighted([1, 0], [1, 0], [1, 1], [2.0, 1.0])
        b = self.weighted([1, 1, 0], [0, 1, 0], [0, 1, 0], [1.0, 3.0, 1.0])
        joined = InteractionDataset.concat([a, b])
        assert len(joined) == 5
        np.testing.assert_array_equal(joined.sparse["user_id"], [0, 1, 0, 1, 2])
        np.testing.assert_array_equal(joined.weights, [2.0, 1.0, 1.0, 3.0, 1.0])
        np.testing.assert_array_equal(joined.oracle_conversion, [1, 1, 0, 1, 0])
        np.testing.assert_array_equal(joined.oracle_ctr, np.full(5, 0.5))
        np.testing.assert_array_equal(joined.oracle_cvr, np.full(5, 0.3))
        np.testing.assert_array_equal(joined.actions, [1, 0, 1, 1, 0])

    def test_column_missing_from_one_part_is_dropped(self):
        a = self.weighted([1, 0], [1, 0], [1, 1], [2.0, 1.0])
        b = tiny_dataset([1, 0], [0, 0])
        joined = InteractionDataset.concat([a, b])
        assert joined.weights is None
        assert not joined.has_oracle
        np.testing.assert_array_equal(joined.clicks, [1, 0, 1, 0])

    def test_single_part_returned_as_is(self):
        a = tiny_dataset([1, 0], [1, 0])
        assert InteractionDataset.concat([a]) is a
