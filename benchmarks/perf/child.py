"""One measured run of one workload, in a fresh process.

Started by ``python -m benchmarks.perf child ...`` with the environment from
:func:`benchmarks.perf.host.child_env` (one BLAS thread, ``src`` on the
path).  Prints one JSON record as the last line of standard output.

Untraced runs report the end-to-end metrics, plus the readings of
``spec.READINGS`` (quality, and the operation tail under the tail
rule, with its percentile and sample count under ``op_tail``).  Every
timing is in nominal seconds (see :mod:`benchmarks.perf.reference`);
the record's ``wall`` holds the same medians in wall seconds, the mean
reference-kernel time, and the share of the run the kernel took.
Traced runs alternate an untraced and a traced task on the same input,
report the per-layer metrics from the traced ones, and the ratio of the
two tasks' wall times as ``trace.overhead_share``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.perf import spec
from benchmarks.perf.host import fingerprint, load_average
from benchmarks.perf.layers import Probe
from benchmarks.perf.reference import NEIGHBOURS, HostGauge, Span
from benchmarks.perf.stats import summarize, tail
from benchmarks.perf.workloads import MIN_CVR_AUC, WORKLOADS, TaskResult

#: A run's medians rest on at least this many tasks.  A ``csv_to_pages``
#: task takes 9-16 s, so a 20 s run could otherwise stop after one.
MIN_TASKS = 2


def _tasks(workload, seconds: float, probe: Optional[Probe]):
    """Tasks for about ``seconds``, at least ``MIN_TASKS``; traced runs go in pairs.

    Past ``MIN_TASKS``, a task starts only if, at the median pace so
    far, it ends nearer to ``seconds`` than stopping now would, so a
    run lasts about ``seconds`` whatever a task costs.
    """
    plain: List[TaskResult] = []
    traced: List[TaskResult] = []
    paces: List[float] = []
    errors = 0
    start = time.perf_counter()
    index = 0
    while index < MIN_TASKS or (
        time.perf_counter() - start + statistics.median(paces) / 2 < seconds
    ):
        began = time.perf_counter()
        try:
            plain.append(workload.task(index))
            if probe is not None:
                with contextlib.ExitStack() as stack:
                    probe.install(stack)
                    result = workload.task(index, probe)
                probe.tasks += 1
                traced.append(result)
        except Exception:  # a failed task is counted, and the run goes on
            traceback.print_exc()
            errors += 1
        paces.append(time.perf_counter() - began)
        index += 1
    return plain, traced, errors


def _failures(results: List[TaskResult]):
    """``(problems, failed tasks)``: reported problems and changed digests.

    Every task of a run ran on the same input, traced or not, so any
    digest other than the first task's is a failure.
    """
    problems: List[str] = []
    failed = 0
    digest = results[0].digest
    for i, result in enumerate(results):
        own = list(result.problems)
        if result.digest != digest:
            own.append(f"task {i} digest {result.digest[:12]} != {digest[:12]}")
        problems.extend(own)
        failed += bool(own)
    return problems, failed


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak among its ended children.

    The pool's workers are forked children, reaped when their fit ends;
    ``RUSAGE_CHILDREN`` reports the largest of their peaks, so memory
    that moves into the workers, or out of them, shows here.  Pages the
    workers share copy-on-write with this process count in both terms.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _task_seconds(result: TaskResult, nominal: bool = True) -> float:
    return sum(result.gauge.seconds(span, nominal, part) for span, part in result.spans)


def _timings(
    gauge: HostGauge, results: List[TaskResult], setups: List[Span], nominal: bool
) -> Dict[str, Dict]:
    """Every timing metric, in nominal seconds or in wall seconds."""
    ops = [
        s * 1e3 for r in results for s in r.gauge.op_seconds(r.ops, nominal, r.op_part)
    ]
    op_tail = tail(ops)
    setup = [gauge.seconds(span, nominal) for span in setups] + [
        r.gauge.seconds(span, nominal) for r in results for span in r.setup_spans
    ]
    train = [
        r.train_rows
        / sum(r.gauge.seconds(span, nominal, r.train_part) for span in r.train_spans)
        for r in results
    ]
    return {
        "setup_s": summarize(setup),
        "task_s": summarize([_task_seconds(r, nominal) for r in results]),
        "train_rows_per_s": summarize(train),
        "op_p50_ms": summarize(ops),
        "op_p99_ms": {
            "median": op_tail["value"],
            "percentile": op_tail["percentile"],
            "n": op_tail["n"],
        },
    }


def _end_to_end(
    gauge: HostGauge, results: List[TaskResult], setups: List[Span], run_s: float
) -> Tuple[Dict[str, Dict], Dict[str, float]]:
    """``(metrics, wall)``: the metrics in nominal seconds, and the wall medians.

    ``wall`` also gives the mean reference-kernel time and the share of
    the run's ``run_s`` seconds the kernel took.
    """
    values = _timings(gauge, results, setups, nominal=True)
    values["peak_rss_mb"] = {"median": peak_rss_mb(), "n": 1}
    wall = {
        name: v["median"]
        for name, v in _timings(gauge, results, setups, nominal=False).items()
    }
    kernel = [end - start for start, end in zip(gauge.starts, gauge.ends)]
    wall["reference_ms"] = statistics.fmean(kernel) * 1e3
    wall["reference_share"] = sum(kernel) / run_s
    return {name: {"value": v["median"], **v} for name, v in values.items()}, wall


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Dict:
    record: Dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load_before": load_average(),
    }
    workload = WORKLOADS[name](seed, workdir)
    reason = workload.skip_reason()
    if reason is not None:
        return {**record, "status": "skipped", "reason": reason}

    # Set-up has no hook points inside it, so the gauge samples around it.
    gauge = workload.gauge
    run_start = time.perf_counter()
    setups: List[Span] = []
    for _ in range(workload.setup_repeats):
        gauge.burst(NEIGHBOURS)
        began = time.perf_counter()
        workload.setup()
        setups.append((began, time.perf_counter()))
        gauge.burst(NEIGHBOURS)
    workload.warmup()
    probe = Probe() if trace else None
    plain, traced, errors = _tasks(workload, seconds, probe)
    results = plain + traced
    if not plain:
        raise RuntimeError(f"{name}: every task failed")

    problems, failed = _failures(results)
    readings = {k: v for r in results for k, v in r.quality.items()}
    if readings.get("cvr_auc", 1.0) < MIN_CVR_AUC:
        problems.append(f"cvr_auc {readings['cvr_auc']:.4f} < {MIN_CVR_AUC}")

    declared = spec.load(spec.ROOT)
    op_tail = wall = None
    if trace:
        layer_values = probe.metrics(
            [_task_seconds(r, nominal=False) for r in plain],
            [_task_seconds(r, nominal=False) for r in traced],
        )
        metrics = {
            m["name"]: {"value": layer_values[m["name"]], "unit": m["unit"]}
            for m in declared["per_layer"]
        }
    else:
        measured, wall = _end_to_end(
            gauge, plain, setups, time.perf_counter() - run_start
        )
        metrics = {
            m["name"]: {**measured[m["name"]], "unit": m["unit"]}
            for m in declared["end_to_end"]
        }
        op_tail = measured["op_p99_ms"]
        readings["op_p99_ms"] = op_tail["value"]
    return {
        **record,
        "status": "ok",
        "correct": not problems and not errors,
        "attempted": len(results) + errors,
        "failed": failed + errors,
        "problems": problems,
        "digest": plain[0].digest,
        "metrics": metrics,
        "readings": readings,
        "op_tail": op_tail,
        "wall": wall,
        "host": fingerprint(),
        "load_after": load_average(),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = spec.ROOT / spec.WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another child
            workdir.parent.rmdir()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0
