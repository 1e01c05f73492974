"""Parent-side commands: ``measure``, ``run`` and ``compare``.

The parent never imports numpy or ``repro``: every measurement happens
in a fresh child (``python -m benchmarks.perf child``) started with one BLAS
thread, one at a time, and waited for before the next starts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.perf import compare, spec
from benchmarks.perf.host import child_env, load_average
from benchmarks.perf.stats import summarize

#: A child that has not finished by then is killed with its process group.
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Start one measured child, wait for it, return its JSON record."""
    command = [
        sys.executable, "-m", "benchmarks.perf", "child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.Popen(
        command,
        cwd=spec.ROOT,
        env=child_env(spec.ROOT),
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from None
    finally:
        # Pool workers are daemons of the child; make sure none outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited with {proc.returncode}")
    return json.loads(lines[-1])


def _check_checkout() -> Optional[str]:
    path = spec.ROOT / spec.SPEC_FILE
    if not path.is_file():
        return f"{path} is missing"
    problems = spec.validate(spec.load(), size=path.stat().st_size)
    if problems:
        return "BENCHMARK.json is invalid: " + "; ".join(problems)
    if not (spec.ROOT / "src" / "repro").is_dir():
        return f"no system to measure: {spec.ROOT / 'src' / 'repro'} is missing"
    return None


def measure(argv: List[str]) -> int:
    """One run; the last stdout line is the one-line JSON result."""
    parser = argparse.ArgumentParser(prog="benchmarks.perf measure")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = _check_checkout()
    if problem is None and args.workload not in {w["name"] for w in spec.load()["workloads"]}:
        problem = f"unknown workload {args.workload!r}"
    if problem is not None:
        print(f"perf: {problem}", file=sys.stderr)
        return 2
    try:
        record = run_child(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    if record["status"] != "ok":
        print(f"perf: {args.workload} skipped: {record['reason']}", file=sys.stderr)
        return 3
    print(json.dumps(record, indent=1), file=sys.stderr)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


def _aggregate(declared: Dict, records: List[Dict], layers: Optional[Dict]) -> Dict:
    """Across-repeat medians and quartiles of one workload's run-level values.

    A repeat whose child crashed counts as one failed attempt.
    """
    skipped = [r for r in records if r["status"] == "skipped"]
    if skipped:
        return {"status": "skipped", "reason": skipped[0]["reason"]}
    ok = [r for r in records if r["status"] == "ok"]
    crashed = len(records) - len(ok)
    if not ok:
        return {"status": "failed", "reason": records[0]["reason"]}
    metrics = {}
    for m in declared["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in ok]
        metrics[m["name"]] = {**m, "values": values, **summarize(values)}
    readings = {}
    for name, (better, bound, absolute) in spec.READINGS.items():
        values = [r["readings"][name] for r in ok if name in r["readings"]]
        if values:
            readings[name] = {
                "better": better, "bound": bound, "absolute": absolute,
                "values": values, **summarize(values),
            }
    attempted = sum(r["attempted"] for r in ok) + crashed
    failed = sum(r["failed"] for r in ok) + crashed
    return {
        "status": "ok",
        "correct": not crashed and all(r["correct"] for r in ok),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "digests": [r["digest"] for r in ok],
        "metrics": metrics,
        "readings": readings,
        "layers": layers,
        "runs": records,
    }


def _run_child_or_record(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    try:
        return run_child(workload, seed, seconds, trace)
    except ChildFailed as exc:
        return {"workload": workload, "status": "failed", "reason": str(exc)}


def run(argv: List[str]) -> int:
    """K interleaved rounds of every workload, plus an optional traced round."""
    parser = argparse.ArgumentParser(prog="benchmarks.perf run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--trace", action="store_true", help="add one traced round")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    problem = _check_checkout()
    if problem is not None:
        print(f"perf: {problem}", file=sys.stderr)
        return 2
    declared = spec.load()
    names = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    load_before = load_average()
    records: Dict[str, List[Dict]] = {name: [] for name in names}
    for round_index in range(args.repeats):
        # Rotate the order so no workload always follows the same one.
        order = names[round_index % len(names):] + names[: round_index % len(names)]
        for name in order:
            record = _run_child_or_record(name, args.seed, seconds, trace=False)
            records[name].append(record)
            print(_line(round_index, record), file=sys.stderr)
    traced: Dict[str, Optional[Dict]] = {name: None for name in names}
    if args.trace:
        for name in names:
            record = _run_child_or_record(name, args.seed, seconds, trace=True)
            if record["status"] == "ok":
                traced[name] = {k: v["value"] for k, v in record["metrics"].items()}
            print(_line("trace", record), file=sys.stderr)
    ok = [r for rs in records.values() for r in rs if r["status"] == "ok"]
    report = {
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": seconds,
        "host": {
            **(ok[0]["host"] if ok else {}),
            "load_before": load_before,
            "load_after": load_average(),
        },
        "workloads": {
            name: _aggregate(declared, records[name], traced[name]) for name in names
        },
    }
    text = json.dumps(report, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(summary(report))
    good = all(
        w["status"] == "skipped" or w.get("correct") for w in report["workloads"].values()
    )
    return 0 if good else 1


def _line(label, record: Dict) -> str:
    if record["status"] != "ok":
        return f"[{label}] {record['workload']}: {record['status']} ({record['reason']})"
    shown = ", ".join(
        f"{name}={m['value']:.4g}" for name, m in list(record["metrics"].items())[:6]
    )
    return f"[{label}] {record['workload']}: correct={record['correct']} {shown}"


def summary(report: Dict) -> str:
    lines = []
    for name, w in report["workloads"].items():
        if w["status"] != "ok":
            lines.append(f"{name}: {w['status']} ({w['reason']})")
            continue
        lines.append(
            f"{name}: correct={w['correct']} failed_share={w['failed_share']:.3g} "
            f"digests_equal={len(set(w['digests'])) == 1}"
        )
        for metric, m in {**w["metrics"], **w["readings"]}.items():
            lines.append(
                f"  {metric:<18} {m['median']:>12.6g} [{m['q1']:.6g}, {m['q3']:.6g}] "
                f"n={m['n']} {m.get('unit', '')}"
            )
        for metric, value in (w["layers"] or {}).items():
            lines.append(f"  {metric:<28} {value:.6g}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    commands = {"measure": measure, "run": run, "compare": compare.main}
    if not argv or argv[0] not in commands:
        print(
            "usage: python -m benchmarks.perf {measure|run|compare} ...\n"
            "  measure --workload W --seed S --seconds T --trace 0|1\n"
            "  run [--seed S] [--repeats K] [--trace] [--out FILE]\n"
            "  compare A.json B.json",
            file=sys.stderr,
        )
        return 2
    return commands[argv[0]](argv[1:])
