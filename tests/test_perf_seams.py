"""The benchmark's traced round still finds every seam it wraps.

``benchmarks.perf.layers.Probe.install`` times layers by wrapping names
callers look up (``training.engine.clip_global_norm``, ``Adam.step``,
``WorkerSupervisor.compute_step``, ...), and ``wrap_all`` silently skips
a name that no longer exists, so a rename in ``src/`` would move that
layer's time into lost ``trace.coverage`` without failing anything.
This test fails instead.
"""

import contextlib
import inspect

import pytest

from benchmarks.perf.layers import Probe
from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.training import TrainConfig, create_engine


def _seams():
    probe = Probe()
    seams = []
    probe.wrap_all = lambda stack, found: seams.extend(found)
    with contextlib.ExitStack() as stack:
        probe.install(stack)
    return seams


def test_every_probe_seam_resolves():
    seams = _seams()
    assert seams
    missing = []
    for owner, attr, span in seams:
        try:
            found = inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr} ({span})")
            continue
        assert callable(getattr(owner, attr)), f"{attr} is not callable"
        assert found is not None
    assert not missing, f"seams the traced round would skip: {missing}"


@pytest.mark.parametrize("overrides", [{}, {"num_workers": 2}], ids=["serial", "pool"])
def test_a_fit_crosses_the_training_seams(overrides):
    """The seams are not just present but on the path a fit takes."""
    train, _, _ = load_scenario(
        "ae_es", n_users=30, n_items=40, n_train=600, n_test=100
    )
    model = build_model(
        "dcmt", train.schema, ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
    )
    config = TrainConfig(epochs=1, batch_size=256, seed=1, **overrides)
    probe = Probe()
    with contextlib.ExitStack() as stack:
        probe.install(stack)
        create_engine(model, config).fit(train)
    names = {span.name for span in probe.tracer.spans}
    expected = {"optim.clip", "optim.step"}
    if overrides:
        expected |= {"parallel.start", "parallel.compute_step"}
    assert expected <= names
