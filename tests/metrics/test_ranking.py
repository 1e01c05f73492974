"""Tests for AUC, grouped AUC and the midranks behind them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import auc, grouped_auc
from repro.metrics.ranking import _midranks


def _bruteforce_midranks(x):
    """O(n^2) reference: each value's rank is the mean of its tied positions."""
    x = np.ravel(x)
    less = (x[None, :] < x[:, None]).sum(axis=1)
    equal = (x[None, :] == x[:, None]).sum(axis=1)
    return less + (equal + 1) / 2.0


def _random_vectors(rng, count):
    """Vectors with heavy ties, NaN, +-inf, integer, 2-D and empty cases."""
    yield np.array([])
    yield np.array([], dtype=np.int64)
    yield np.zeros((0, 3))
    yield np.array([np.nan])
    yield np.array([np.inf, -np.inf, np.inf, 0.0, -0.0])
    for i in range(count):
        n = int(rng.integers(0, 50))
        kind = i % 6
        if kind == 0:
            yield rng.integers(-4, 4, size=n)
        elif kind == 1:
            yield rng.integers(0, 3, size=(n // 4 + 1, 4)).astype(np.int32)
        elif kind == 2:
            x = rng.normal(size=n).round(1)
            x[rng.random(n) < 0.15] = np.inf
            x[rng.random(n) < 0.15] = -np.inf
            yield x
        elif kind == 3:
            x = rng.normal(size=n).round(1)
            x[rng.random(n) < 0.05] = np.nan
            yield x
        elif kind == 4:
            yield rng.normal(size=(n // 5 + 1, 5)).round(0)
        else:
            yield rng.random(n)


class TestMidranks:
    def test_matches_bruteforce_on_heavy_ties(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            x = rng.integers(0, 5, size=n).astype(float)
            x[rng.random(n) < 0.1] = np.inf
            ranks = _midranks(x)
            assert ranks.dtype == np.float64
            np.testing.assert_array_equal(ranks, _bruteforce_midranks(x))

    def test_ranks_sum_to_triangular_number(self, rng):
        x = rng.integers(0, 7, size=(9, 11))
        ranks = _midranks(x)
        assert ranks.shape == (99,)
        assert ranks.sum() == 99 * 100 / 2

    def test_any_nan_makes_every_rank_nan(self):
        ranks = _midranks(np.array([0.3, np.nan, 0.1, np.inf]))
        assert ranks.shape == (4,) and np.isnan(ranks).all()

    def test_empty_input(self):
        ranks = _midranks(np.array([]))
        assert ranks.shape == (0,) and ranks.dtype == np.float64

    def test_bit_identical_to_scipy_rankdata(self, rng):
        stats = pytest.importorskip("scipy.stats")
        checked = 0
        for x in _random_vectors(rng, 1200):
            ours, theirs = _midranks(x), stats.rankdata(x)
            assert ours.dtype == theirs.dtype, x
            assert ours.shape == theirs.shape, x
            assert ours.tobytes() == theirs.tobytes(), x
            checked += 1
        assert checked >= 1000


class TestAUC:
    def test_perfect_ranking(self):
        assert auc(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_inverted_ranking(self):
        assert auc(np.array([1, 1, 0, 0]), np.array([0.1, 0.2, 0.8, 0.9])) == 0.0

    def test_random_scores_near_half(self, rng):
        y = (rng.random(20_000) < 0.3).astype(int)
        s = rng.random(20_000)
        assert abs(auc(y, s) - 0.5) < 0.02

    def test_all_ties_is_half(self):
        assert auc(np.array([0, 1, 0, 1]), np.zeros(4)) == 0.5

    def test_partial_ties_midrank(self):
        # one positive tied with one negative among {0.5, 0.5, 0.9}
        value = auc(np.array([0, 1, 1]), np.array([0.5, 0.5, 0.9]))
        assert np.isclose(value, 0.75)

    def test_degenerate_labels_raise(self):
        with pytest.raises(ValueError, match="undefined"):
            auc(np.ones(4), np.random.random(4))
        with pytest.raises(ValueError, match="undefined"):
            auc(np.zeros(4), np.random.random(4))

    def test_nan_score_gives_nan(self):
        scores = np.array([0.1, np.nan, 0.3, 0.4])
        assert np.isnan(auc(np.array([0, 1, 0, 1]), scores))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            auc(np.array([0, 1]), np.array([0.5]))

    def test_matches_bruteforce(self, rng):
        """Rank formula equals the O(n^2) pairwise definition."""
        y = (rng.random(60) < 0.4).astype(int)
        s = rng.normal(size=60).round(1)  # rounding induces ties
        pos = s[y == 1]
        neg = s[y == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert np.isclose(auc(y, s), brute)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_to_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        y = np.array([0] * 10 + [1] * 10)
        s = rng.normal(size=20)
        assert np.isclose(auc(y, s), auc(y, 3.0 * s + 7.0))
        assert np.isclose(auc(y, s), auc(y, np.exp(s)))


class TestGroupedAUC:
    def test_single_group_equals_auc(self, rng):
        y = np.array([0, 1, 0, 1])
        s = rng.random(4)
        g = np.zeros(4)
        assert np.isclose(grouped_auc(y, s, g), auc(y, s))

    def test_degenerate_groups_skipped(self):
        y = np.array([1, 1, 0, 1])
        s = np.array([0.9, 0.8, 0.1, 0.7])
        g = np.array([0, 0, 1, 1])  # group 0 all-positive, skipped
        assert np.isclose(grouped_auc(y, s, g), 1.0)

    def test_all_degenerate_returns_none(self):
        y = np.array([1, 1, 0, 0])
        s = np.random.random(4)
        g = np.array([0, 0, 1, 1])
        assert grouped_auc(y, s, g) is None

    def test_weighting_by_group_size(self):
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        s = np.array([0.1, 0.9, 0.1, 0.9, 0.9, 0.1, 0.9, 0.1])
        g = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        # group 0 AUC=1, group 1 AUC=0, equal sizes -> 0.5
        assert np.isclose(grouped_auc(y, s, g), 0.5)
