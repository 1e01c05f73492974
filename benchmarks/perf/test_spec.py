import copy

import pytest

from benchmarks.perf import spec


@pytest.fixture(scope="module")
def declared():
    return spec.load()


def test_committed_benchmark_file_is_valid(declared):
    size = (spec.ROOT / spec.SPEC_FILE).stat().st_size
    assert spec.validate(declared, size=size) == []


def test_every_per_layer_metric_names_what_it_moves(declared):
    e2e = {m["name"] for m in declared["end_to_end"]}
    workloads = {w["name"] for w in declared["workloads"]}
    for m in declared["per_layer"]:
        metric, workload = spec.MOVES[m["name"]]
        assert metric in e2e | set(spec.READINGS) and workload in workloads, m["name"]


def test_benchmark_command_runs_this_package(declared):
    assert declared["command"][:3] == ["python3", "-m", "benchmarks.perf"]
    assert declared["paths"] == ["benchmarks/perf"]


def test_readme_predicts_a_move_for_every_per_layer_metric(declared):
    readme = (spec.ROOT / "benchmarks" / "perf" / "README.md").read_text()
    missing = [m["name"] for m in declared["per_layer"] if f"`{m['name']}`" not in readme]
    assert missing == []


def broken(declared, edit):
    data = copy.deepcopy(declared)
    edit(data)
    return spec.validate(data)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["workloads"][0].update(name="bad name"), "workload name"),
        (lambda d: d["end_to_end"][1].update(name="-dash"), "end-to-end name"),
        (lambda d: d["per_layer"][0].update(name="x" * 65), "per-layer name"),
        (lambda d: d.update(workloads=d["workloads"][:1]), "expected 2-8"),
        (lambda d: d.update(workloads=d["workloads"] * 3), "expected 2-8"),
        (lambda d: d.update(end_to_end=d["end_to_end"] * 4), "expected 1-16"),
        (lambda d: d.update(per_layer=d["per_layer"] * 3), "expected 1-128"),
        (lambda d: d["end_to_end"][1].update(bound=0.3), "bound"),
        (lambda d: d["end_to_end"][0].update(bound=0.01), "largest bound"),
        (lambda d: d["end_to_end"].pop(0), "setup_s"),
        (lambda d: d["per_layer"].pop(), "MOVES"),
        (lambda d: d["per_layer"][0].update(unit="bytes per step!"), "unit"),
        (lambda d: d["per_layer"][0].update(better="up"), "lower or higher"),
        (lambda d: d["workloads"][0].update(why="a\nb"), "one-line why"),
        (lambda d: d.update(command=["python3", "/abs/run.py"]), "leaves"),
        (lambda d: d.update(run_seconds=61), "run_seconds"),
        (lambda d: d.update(extra=1), "keys"),
    ],
)
def test_validation_rejects(declared, edit, message):
    problems = broken(declared, edit)
    assert any(message in p for p in problems), problems


def test_size_limit(declared):
    assert any("64 KiB" in p for p in spec.validate(declared, size=65 * 1024))
