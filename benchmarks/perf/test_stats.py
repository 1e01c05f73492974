import random
import statistics

import pytest

from benchmarks.perf.stats import relative_spread, summarize, tail, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(6000, 99.0), (1000, 99.0), (500, 98.0), (100, 90.0), (21, 100 * 11 / 21)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == pytest.approx(expected)


@pytest.mark.parametrize("n", [0, 1, 10, 20])
def test_too_few_samples_have_no_tail(n):
    assert tail_percentile(n) is None


def test_tail_of_6000_pages_is_p99_with_60_beyond():
    values = [float(i) for i in range(1, 6001)]
    random.Random(0).shuffle(values)
    result = tail(values)
    assert result == {"percentile": 99.0, "value": 5940.0, "n": 6000, "beyond": 60}


def test_small_sample_tail_reports_the_percentile_it_used():
    values = [float(i) for i in range(1, 101)]
    result = tail(values)
    assert result["percentile"] == 90.0
    assert result["beyond"] == 10
    assert result["value"] == 90.0


def test_tail_falls_back_to_the_median_and_says_so():
    result = tail([3.0, 1.0, 2.0])
    assert result["percentile"] == 50.0
    assert result["value"] == 2.0
    assert result["n"] == 3


def test_summary_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert summarize(values) == {"median": median, "q1": q1, "q3": q3, "n": 7}


def test_single_value_summary_has_zero_spread():
    summary = summarize([2.5])
    assert summary == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    assert relative_spread(summary) == 0.0


def test_relative_spread_is_iqr_over_median():
    assert relative_spread({"median": 10.0, "q1": 9.0, "q3": 11.5}) == pytest.approx(0.25)
