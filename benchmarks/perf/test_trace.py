import contextlib
import types

import pytest

from benchmarks.perf.trace import Tracer, coverage, patch, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def nested_tree():
    """task [0, 10] > a [1, 4] > b [2, 3];  task > month.c [5, 9]."""
    clock = FakeClock()
    tracer = Tracer(clock)
    for at, action, name in [
        (0, "begin", "task"), (1, "begin", "a"), (2, "begin", "b"),
        (3, "end", "b"), (4, "end", "a"), (5, "begin", "month.c"),
        (9, "end", "month.c"), (10, "end", "task"),
    ]:
        clock.now = float(at)
        getattr(tracer, action)(name)
    return tracer


def test_self_time_subtracts_children_only():
    times = self_times(nested_tree().spans)
    assert times == {"task": 3.0, "a": 2.0, "b": 1.0, "month.c": 4.0}
    assert sum(times.values()) == 10.0


def test_a_view_looks_through_spans_it_does_not_keep():
    spans = nested_tree().spans
    stage = self_times(spans, keep=lambda n: n == "task" or n.startswith("month."))
    assert stage == {"task": 6.0, "month.c": 4.0}


def test_coverage_is_the_share_of_root_time_in_named_spans():
    assert coverage(nested_tree().spans, "task") == pytest.approx(0.7)
    assert coverage([], "task") == 0.0


def test_spans_must_close_in_order():
    tracer = Tracer(FakeClock())
    tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError, match="inner"):
        tracer.end("outer")


def test_wrap_records_a_span_even_when_the_call_raises():
    tracer = Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert [s.name for s in tracer.spans] == ["boom"]


class Service:
    def serve(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls, x

    @staticmethod
    def helper(x):
        return x * 2


class Replica(Service):
    pass


def test_patch_wraps_and_restores_every_kind_of_seam():
    tracer = Tracer(FakeClock())
    module = types.SimpleNamespace(fit=lambda x: x - 1)
    instance = Service()
    make = lambda name: lambda fn: tracer.wrap(fn, name)  # noqa: E731
    originals = (vars(Service)["serve"], vars(Service)["build"], module.fit)
    with contextlib.ExitStack() as stack:
        assert patch(stack, Service, "serve", make("serve"))
        assert patch(stack, Service, "build", make("build"))
        assert patch(stack, Service, "helper", make("helper"))
        assert patch(stack, module, "fit", make("fit"))
        assert patch(stack, Replica, "serve", make("replica"))
        assert not patch(stack, Service, "missing", make("missing"))
        assert Service().serve(1) == 2
        assert Service.build(3) == (Service, 3)
        assert Service.helper(4) == 8
        assert module.fit(5) == 4
        assert Replica().serve(1) == 2
        assert patch(stack, instance, "serve", make("instance"))
        assert instance.serve(1) == 2
    # A subclass or instance wrapper nests around the class-level one.
    assert [s.name for s in tracer.spans] == [
        "serve", "build", "helper", "fit", "serve", "replica", "serve", "instance",
    ]
    assert (vars(Service)["serve"], vars(Service)["build"], module.fit) == originals
    assert "serve" not in vars(Replica)
    assert "serve" not in vars(instance)
