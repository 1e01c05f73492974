import pytest

from benchmarks.perf.cli import _aggregate
from benchmarks.perf.compare import (
    IMPROVED,
    UNCHANGED,
    UNRESOLVED,
    WORSE,
    compare,
    verdict,
)

STEADY = [10.0, 10.05, 9.95, 10.02, 9.98]


def scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize(
    "b, better, expected",
    [
        (STEADY, "lower", UNCHANGED),
        (scaled(STEADY, 1.03), "lower", UNCHANGED),
        (scaled(STEADY, 1.10), "lower", WORSE),
        (scaled(STEADY, 0.90), "lower", IMPROVED),
        (scaled(STEADY, 1.10), "higher", IMPROVED),
        (scaled(STEADY, 0.90), "higher", WORSE),
    ],
)
def test_verdict_against_the_bound(b, better, expected):
    assert verdict(STEADY, b, better, bound=0.05) == expected


def test_wide_spread_is_unresolved():
    noisy = [8.0, 12.0, 10.0, 9.0, 11.5]
    assert verdict(STEADY, scaled(noisy, 1.08), "lower", bound=0.05) == UNRESOLVED


def test_wide_spread_still_resolves_when_one_side_beats_every_run():
    wide = [10.0, 10.5, 11.0, 11.5, 12.0]
    slower = [13.0, 14.0, 15.0, 16.0, 17.0]
    assert verdict(wide, slower, "lower", bound=0.05) == WORSE
    assert verdict(slower, wide, "lower", bound=0.05) == IMPROVED


def test_separated_sets_within_the_bound_are_unchanged():
    # A slow stretch of the host shifts a whole set: every B run is slower
    # than every A run, but the median moved by 9.9%, less than the bound.
    wide = [10.0, 10.5, 11.0, 11.5, 12.0]
    shifted = [12.02, 12.05, 12.09, 12.6, 13.0]
    assert min(shifted) > max(wide)
    assert verdict(wide, shifted, "lower", bound=0.10) == UNCHANGED
    assert verdict(shifted, wide, "higher", bound=0.10) == UNCHANGED


def test_absolute_bound_for_quality():
    auc = [0.700, 0.700, 0.700]
    assert verdict(auc, [0.6995] * 3, "higher", 0.001, absolute=True) == UNCHANGED
    assert verdict(auc, [0.698] * 3, "higher", 0.001, absolute=True) == WORSE


def run_file(task_values, digest="d1", failed=0):
    return {
        "workloads": {
            "train_inmem": {
                "status": "ok",
                "digests": [digest] * len(task_values),
                "failed_share": failed / len(task_values),
                "metrics": {
                    "task_s": {
                        "unit": "s", "better": "lower", "bound": 0.05,
                        "values": task_values,
                    }
                },
                "readings": {
                    "cvr_auc": {
                        "better": "higher", "bound": 0.001, "absolute": True,
                        "values": [0.71] * 3,
                    },
                    "op_p99_ms": {
                        "better": "lower", "bound": 0.25, "absolute": False,
                        "values": scaled(STEADY, 0.1),
                    },
                },
            },
            "train_pool2": {"status": "skipped", "reason": "1 CPU"},
        }
    }


def test_compare_reports_metrics_readings_failures_and_digests():
    rows = compare(run_file(STEADY), run_file(scaled(STEADY, 1.2)))
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdicts[("train_inmem", "task_s")] == WORSE
    assert verdicts[("train_inmem", "cvr_auc")] == UNCHANGED
    assert verdicts[("train_inmem", "op_p99_ms")] == UNCHANGED
    assert verdicts[("train_inmem", "failed_share")] == UNCHANGED
    assert verdicts[("train_pool2", "-")] == "not compared (A skipped, B skipped)"
    # The bounds BENCHMARK.json declares now win over those the files recorded.
    rows = compare(run_file(STEADY), run_file(scaled(STEADY, 1.2)), {"task_s": 0.25})
    assert next(r for r in rows if r["metric"] == "task_s")["verdict"] == UNCHANGED


def test_a_crashed_repeat_counts_as_a_failed_attempt():
    declared = {"end_to_end": [{"name": "task_s", "unit": "s", "better": "lower", "bound": 0.05}]}
    good = {
        "status": "ok", "correct": True, "attempted": 3, "failed": 0, "digest": "d",
        "metrics": {"task_s": {"value": 2.0}}, "readings": {"op_p99_ms": 1.0},
    }
    crashed = {"workload": "w", "status": "failed", "reason": "child exited with 1"}
    result = _aggregate(declared, [good, crashed, good], None)
    assert (result["attempted"], result["failed"], result["correct"]) == (7, 1, False)
    assert result["metrics"]["task_s"]["values"] == [2.0, 2.0]
    assert result["readings"]["op_p99_ms"]["values"] == [1.0, 1.0]
    assert _aggregate(declared, [crashed], None)["status"] == "failed"


def test_compare_flags_different_digests_and_failures():
    rows = compare(run_file(STEADY), run_file(STEADY, digest="d2"))
    share = next(r for r in rows if r["metric"] == "failed_share")
    assert share["digests_equal"] is False
    assert share["verdict"] == WORSE
    rows = compare(run_file(STEADY), run_file(STEADY, failed=1))
    assert next(r for r in rows if r["metric"] == "failed_share")["verdict"] == WORSE
