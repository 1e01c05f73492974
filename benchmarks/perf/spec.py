"""``BENCHMARK.json``: loading, validation, and the per-layer move table.

``BENCHMARK.json`` at the repository root declares the workloads and
every metric (name, unit, which direction is better, and for end-to-end
metrics the regression bound as a share of the baseline median).  The
child reports exactly the metrics it declares.  Stdlib only.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
SPEC_FILE = "BENCHMARK.json"
#: Scratch space of running children, inside the checkout (git-ignored).
WORK_DIR = ".perf_work"

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}

#: Readings that every run records and ``compare`` judges, but that
#: ``BENCHMARK.json`` does not declare: name -> (better, bound, absolute).
#: The quality readings depend on the seed, so their bound is absolute.
#: ``op_p99_ms`` follows the host more than the code: an operation that
#: a host stall hits is slow whatever the reference samples around it
#: read, so even in nominal seconds its ten-seed spread reached 0.245
#: on a 2-vCPU host in a slow stretch, against the largest bound (0.25)
#: the benchmark format allows; it cannot be a declared metric there.
READINGS = {
    "cvr_auc": ("higher", 0.001, True),
    "month_regret": ("lower", 0.001, True),
    "op_p99_ms": ("lower", 0.25, False),
}

#: Per-layer metric -> (end-to-end metric it should move, on which
#: workload).  ``BENCHMARK.json`` declares the same names.
MOVES = {
    "data.meta_pass_s": ("task_s", "csv_to_pages"),
    "data.fetch_s": ("train_rows_per_s", "csv_to_pages"),
    "data.rows_parsed": ("train_rows_per_s", "csv_to_pages"),
    "training.forward_s": ("train_rows_per_s", "train_inmem"),
    "training.backward_s": ("train_rows_per_s", "train_inmem"),
    "training.steps": ("train_rows_per_s", "train_inmem"),
    "autograd.plan.traces": ("train_rows_per_s", "train_inmem"),
    "autograd.plan.replays": ("train_rows_per_s", "train_inmem"),
    "autograd.plan.eager_steps": ("train_rows_per_s", "train_inmem"),
    "optim.clip_s": ("train_rows_per_s", "train_inmem"),
    "optim.step_s": ("train_rows_per_s", "train_inmem"),
    "parallel.start_s": ("task_s", "train_pool2"),
    "parallel.compute_step_s": ("train_rows_per_s", "train_pool2"),
    "parallel.dispatches_per_step": ("train_rows_per_s", "train_pool2"),
    "parallel.redispatches": ("train_rows_per_s", "train_pool2"),
    "parallel.workers_lost": ("train_rows_per_s", "train_pool2"),
    "parallel.bytes_per_step": ("train_rows_per_s", "train_pool2"),
    "lifecycle.gate_s": ("task_s", "csv_to_pages"),
    "lifecycle.publish_s": ("task_s", "csv_to_pages"),
    "lifecycle.promote_s": ("task_s", "csv_to_pages"),
    "lifecycle.load_s": ("task_s", "csv_to_pages"),
    "lifecycle.canary_s": ("task_s", "month_smoke"),
    "serving.features_s": ("op_p50_ms", "csv_to_pages"),
    "serving.predict_s": ("op_p50_ms", "csv_to_pages"),
    "serving.replica_self_s": ("op_p50_ms", "csv_to_pages"),
    "serving.primary_share": ("op_p99_ms", "csv_to_pages"),
    "fleet.route_self_s": ("op_p50_ms", "csv_to_pages"),
    "fleet.hedges": ("op_p99_ms", "csv_to_pages"),
    "fleet.shed": ("op_p99_ms", "csv_to_pages"),
    "month.world_s": ("task_s", "month_smoke"),
    "month.behavior_s": ("task_s", "month_smoke"),
    "month.serve_s": ("task_s", "month_smoke"),
    "month.fit_s": ("task_s", "month_smoke"),
    "month.lifecycle_s": ("task_s", "month_smoke"),
    "month.monitor_s": ("task_s", "month_smoke"),
    "month.ingest_s": ("task_s", "month_smoke"),
    "month.eval_s": ("task_s", "month_smoke"),
    "month.self_s": ("task_s", "month_smoke"),
    "month.retrains": ("task_s", "month_smoke"),
    "month.promotions": ("task_s", "month_smoke"),
    "month.rollbacks": ("task_s", "month_smoke"),
    "trace.coverage": ("task_s", "month_smoke"),
    "trace.overhead_share": ("task_s", "csv_to_pages"),
}


def load(root: Path = ROOT) -> Dict:
    return json.loads((root / SPEC_FILE).read_text())


def _names(entries: List[Dict], what: str, problems: List[str]) -> List[str]:
    names = []
    for entry in entries:
        name = entry.get("name", "")
        if not isinstance(name, str) or not NAME.fullmatch(name):
            problems.append(f"{what} name {name!r} is not [A-Za-z0-9][A-Za-z0-9_.-]*")
        names.append(name)
    if len(set(names)) != len(names):
        problems.append(f"{what} names repeat")
    return names


def validate(data: Dict, size: int = 0) -> List[str]:
    """Every way ``data`` breaks the benchmark file's contract (empty: valid)."""
    problems: List[str] = []
    if size > 64 * 1024:
        problems.append("file is larger than 64 KiB")
    if set(data) != KEYS:
        return problems + [f"keys are {sorted(data)}, expected {sorted(KEYS)}"]

    command = data["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32) or not all(
        isinstance(arg, str) and len(arg) <= 200 for arg in command
    ):
        problems.append("command must be 1-32 strings of at most 200 characters")
    elif any(arg.startswith("/") or ".." in arg.split("/") for arg in command):
        problems.append("command leaves the repository")
    paths = data["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16) or not all(
        isinstance(p, str) and PATH.fullmatch(p) and ".." not in p.split("/")
        for p in paths
    ):
        problems.append("paths must be 1-16 relative directories")
    seconds = data["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")

    workloads = data["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append(f"{len(workloads)} workloads, expected 2-8")
    for w in workloads:
        why = w.get("why", "")
        if set(w) != {"name", "why"} or not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            problems.append(f"workload {w.get('name')!r} needs a one-line why of <= 200 chars")
    names = _names(workloads, "workload", problems)

    e2e, layers = data["end_to_end"], data["per_layer"]
    if not 1 <= len(e2e) <= 16:
        problems.append(f"{len(e2e)} end-to-end metrics, expected 1-16")
    if not 1 <= len(layers) <= 128:
        problems.append(f"{len(layers)} per-layer metrics, expected 1-128")
    for m in e2e:
        bound = m.get("bound")
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append(f"end-to-end metric {m.get('name')!r} has keys {sorted(m)}")
        elif not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
            problems.append(f"bound of {m['name']!r} must be in (0, 0.25]")
    for m in layers:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric {m.get('name')!r} has keys {sorted(m)}")
    for m in e2e + layers:
        if not UNIT.fullmatch(str(m.get("unit", ""))):
            problems.append(f"unit {m.get('unit')!r} of {m.get('name')!r} is not valid")
        if m.get("better") not in ("lower", "higher"):
            problems.append(f"better of {m.get('name')!r} must be lower or higher")
    e2e_names = _names(e2e, "end-to-end", problems)
    layer_names = _names(layers, "per-layer", problems)
    if len(set(e2e_names + layer_names)) != len(e2e_names) + len(layer_names):
        problems.append("a name is used by both an end-to-end and a per-layer metric")

    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("setup_s (unit s, lower is better) is required")
    elif any(m.get("bound", 0) > setup[0].get("bound", 0) for m in e2e):
        problems.append("setup_s must carry the largest bound")

    if set(layer_names) != set(MOVES):
        problems.append(
            "per-layer metrics and MOVES differ: "
            f"{sorted(set(layer_names) ^ set(MOVES))}"
        )
    for layer, (metric, workload) in MOVES.items():
        if (metric not in e2e_names and metric not in READINGS) or workload not in names:
            problems.append(f"{layer} moves unknown {metric!r} on {workload!r}")
    return problems
