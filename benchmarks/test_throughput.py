"""Performance benchmarks: training and inference throughput.

Unlike the table/figure benches (one-shot artifact regenerations),
these use pytest-benchmark's repeated timing to track the numpy
engine's speed: rows/second for a DCMT training epoch (dense, sparse
embedding-gradient, and compiled-plan paths) and for full-batch
inference.

Throughput is computed from the *median* round, not the mean -- a
single GC pause or scheduler hiccup should not move the reported
number.  The run writes ``BENCH_throughput.json`` at the repo root
recording the measured rates, a profiled op breakdown, the speedup
over the pre-optimisation engine, and a ``history`` trajectory that
every ``make bench`` run appends a timestamped entry to.
"""

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from repro.autograd.plan import PlanRunner
from repro.autograd.sparse import sparse_grads
from repro.core.dcmt import DCMT
from repro.data.batching import batch_iterator
from repro.data.synthetic import SyntheticScenario
from repro.nn.embedding import trusted_indices
from repro.optim import Adam
from repro.perf import OpProfiler

pytestmark = pytest.mark.perf

ROWS = 20_000

#: rows/s measured on this suite immediately before the sparse-grad /
#: fused-kernel engine rework (dense scatter, unfused matmul+add+bias,
#: two-branch sigmoid, grads on every node).  The JSON report states
#: speedups relative to these.
BASELINE_TRAIN_ROWS_PER_S = 56_600
BASELINE_INFERENCE_ROWS_PER_S = 165_000

_REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_throughput.json"
_RESULTS = {}


@pytest.fixture(scope="module")
def world(bench_config):
    scenario = SyntheticScenario(
        bench_config.scenario("ae_es", n_train=ROWS, n_test=1000)
    )
    train, test = scenario.generate()
    return train, test


def _make_epoch(train, bench_config, seed=0):
    model = DCMT(train.schema, bench_config.model_config(0))
    optimizer = Adam(model.parameters(), lr=0.003)

    def one_epoch():
        rng = np.random.default_rng(seed)
        for batch in batch_iterator(train, 1024, rng):
            loss = model.loss(batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

    return one_epoch


def _median_rows_per_second(benchmark, rows):
    return rows / benchmark.stats["median"]


def test_training_epoch_throughput(benchmark, world, bench_config):
    """Dense gradient path: the engine default."""
    train, _ = world
    benchmark.pedantic(_make_epoch(train, bench_config), rounds=3, iterations=1)
    rows_per_second = _median_rows_per_second(benchmark, ROWS)
    _RESULTS["train_dense_rows_per_s"] = rows_per_second
    print(f"\ntraining throughput (dense): {rows_per_second:,.0f} rows/s")
    assert rows_per_second > 20_000


def test_training_epoch_throughput_sparse(benchmark, world, bench_config):
    """Sparse embedding grads + trusted indices: the Trainer defaults."""
    train, _ = world
    one_epoch = _make_epoch(train, bench_config)

    def sparse_epoch():
        with sparse_grads(True), trusted_indices():
            one_epoch()

    benchmark.pedantic(sparse_epoch, rounds=3, iterations=1)
    rows_per_second = _median_rows_per_second(benchmark, ROWS)
    _RESULTS["train_sparse_rows_per_s"] = rows_per_second
    print(f"\ntraining throughput (sparse): {rows_per_second:,.0f} rows/s")
    assert rows_per_second > 20_000


def _make_compiled_epoch(train, bench_config, seed=0):
    """Epoch through a compiled execution plan.

    The :class:`PlanRunner` persists across benchmark rounds, exactly as
    it persists across epochs in a real ``fit``: the first full-size
    batch is traced and every subsequent step replays the pre-resolved
    kernel program out of the buffer arena.
    """
    model = DCMT(train.schema, bench_config.model_config(0))
    optimizer = Adam(model.parameters(), lr=0.003)
    runner = PlanRunner(model, expected_batch_size=1024)

    def one_epoch():
        rng = np.random.default_rng(seed)
        for batch in batch_iterator(train, 1024, rng):
            loss = runner.forward(batch)
            optimizer.zero_grad()
            runner.backward(loss)
            optimizer.step()

    return one_epoch, runner


def test_training_epoch_throughput_compiled(benchmark, world, bench_config):
    """Compiled-plan path: trace once, replay out= kernels from the arena."""
    train, _ = world
    one_epoch, runner = _make_compiled_epoch(train, bench_config)
    one_epoch()  # warm-up epoch: traces the plan, fills the arena
    benchmark.pedantic(one_epoch, rounds=3, iterations=1)
    rows_per_second = _median_rows_per_second(benchmark, ROWS)
    _RESULTS["train_compiled_rows_per_s"] = rows_per_second
    _RESULTS["plan"] = {
        "runner": runner.stats.to_dict(),
        "compiled": runner.arena_stats,
    }
    assert not runner.disabled, runner.stats.disabled_reason
    assert runner.stats.traces == 1, "plan should trace exactly once"
    assert runner.stats.replays > 0
    print(f"\ntraining throughput (compiled): {rows_per_second:,.0f} rows/s")
    assert rows_per_second > 20_000


def test_inference_throughput(benchmark, world, bench_config):
    train, test = world
    model = DCMT(train.schema, bench_config.model_config(0))
    batch = test.full_batch()

    def infer():
        return model.predict(batch)

    preds = benchmark.pedantic(infer, rounds=5, iterations=1)
    rows_per_second = _median_rows_per_second(benchmark, len(test))
    _RESULTS["inference_rows_per_s"] = rows_per_second
    print(f"\ninference throughput: {rows_per_second:,.0f} rows/s")
    assert preds.cvr.shape == (len(test),)
    assert rows_per_second > 40_000


def _load_history() -> list:
    """The report's bench trajectory, backfilled from the committed entry.

    Reports written before trajectory tracking carried a single
    ``measured`` block; that block becomes the first history point (with
    a ``null`` timestamp -- its wall-clock time was never recorded) so
    the trend is never lost when the format evolves.
    """
    if not _REPORT_PATH.exists():
        return []
    try:
        previous = json.loads(_REPORT_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    history = previous.get("history")
    if isinstance(history, list):
        return history
    if "measured" not in previous:
        return []
    return [
        {
            "timestamp": None,
            "measured": previous["measured"],
            "train_speedup_vs_baseline": previous.get("train_speedup_vs_baseline"),
        }
    ]


def test_write_throughput_report(benchmark, world, bench_config):
    """Aggregate the measured rates into ``BENCH_throughput.json``.

    Runs last in this module (pytest preserves definition order) and
    asserts the acceptance bars: dense training throughput at least 2x
    the pre-optimisation engine, and the compiled-plan path at least as
    fast as eager (both medians from the same run, so machine-speed
    drift cancels out).
    """
    train, _ = world
    assert "train_dense_rows_per_s" in _RESULTS, "ordering: benches must run first"
    assert "train_compiled_rows_per_s" in _RESULTS, "ordering: benches must run first"

    # One profiled epoch per path so the report shows where the time
    # (and memory) goes -- the compiled profile carries the per-kernel
    # backward attribution and arena-reuse bytes.
    prof = OpProfiler()

    def profiled_epoch():
        with prof:
            _make_epoch(train, bench_config)()

    benchmark.pedantic(profiled_epoch, rounds=1, iterations=1)
    top_ops = dict(list(prof.summary()["ops"].items())[:8])

    prof_compiled = OpProfiler()
    compiled_epoch, _runner = _make_compiled_epoch(train, bench_config)
    compiled_epoch()  # trace outside the profiled window
    with prof_compiled:
        compiled_epoch()
    compiled_top_ops = dict(list(prof_compiled.summary()["ops"].items())[:8])

    train_speedup = _RESULTS["train_dense_rows_per_s"] / BASELINE_TRAIN_ROWS_PER_S
    compiled_speedup = (
        _RESULTS["train_compiled_rows_per_s"] / BASELINE_TRAIN_ROWS_PER_S
    )
    plan_info = _RESULTS.pop("plan", None)
    history = _load_history()
    history.append(
        {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "measured": dict(_RESULTS),
            "train_speedup_vs_baseline": round(train_speedup, 2),
        }
    )
    report = {
        "rows": ROWS,
        "batch_size": 1024,
        "stat": "median",
        "baseline": {
            "train_rows_per_s": BASELINE_TRAIN_ROWS_PER_S,
            "inference_rows_per_s": BASELINE_INFERENCE_ROWS_PER_S,
        },
        "measured": dict(_RESULTS),
        "train_speedup_vs_baseline": round(train_speedup, 2),
        "train_compiled_speedup_vs_baseline": round(compiled_speedup, 2),
        "inference_speedup_vs_baseline": round(
            _RESULTS["inference_rows_per_s"] / BASELINE_INFERENCE_ROWS_PER_S, 2
        ),
        "plan": plan_info,
        "profile_top_ops": top_ops,
        "profile_compiled_top_ops": compiled_top_ops,
        "history": history,
    }
    _REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {_REPORT_PATH} (train speedup {train_speedup:.2f}x, "
          f"compiled {compiled_speedup:.2f}x)")
    assert train_speedup >= 2.0
    # The compiled plan must never lose to the eager engine it lowers.
    assert (
        _RESULTS["train_compiled_rows_per_s"]
        >= _RESULTS["train_dense_rows_per_s"]
    )
