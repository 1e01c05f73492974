"""Served pages never walk the module tree.

A model outside a fit is in eval mode: ``ModelRegistry.load_model``
returns one, and ``RankingService`` puts its primary model and its
``ctr_provider`` in eval mode once, at construction and on every
``swap_model``.  ``predict`` then has no mode to switch, so a steady
page calls ``Module.modules`` zero times -- through a registry-built
fleet and a bare service alike, across a promotion and a rollback.
Once a page size repeats, ``predict`` replays a compiled forward
program, so a steady page calls ``Module.__call__`` zero times too.
"""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.lifecycle import ModelRegistry
from repro.models import ModelConfig, build_model
from repro.nn.module import Module
from repro.simulation import ServingFleet
from repro.simulation.serving import RankingService

N_PAGES = 200
PROMOTE_AT = 80
ROLLBACK_AT = 140


@pytest.fixture(scope="module")
def world():
    train, _, scenario = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=1500, n_test=200
    )
    return train, scenario


def _factory(train, seed=0):
    config = ModelConfig(embedding_dim=4, hidden_sizes=(8,), dropout=0.1, seed=seed)
    return lambda: build_model("dcmt", train.schema, config)


def _count_module_walks(monkeypatch):
    calls = [0]
    original = Module.modules

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(Module, "modules", counting)
    return calls


def _count_module_calls(monkeypatch):
    calls = [0]
    original = Module.__call__

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Module, "__call__", counting)
    return calls


def _serve(serve_page, calls, promote, rollback):
    """Serve ``N_PAGES`` seeded pages; return the walks each page made."""
    rng = np.random.default_rng(3)
    per_page = []
    for i in range(N_PAGES):
        if i == PROMOTE_AT:
            promote()
        elif i == ROLLBACK_AT:
            rollback()
        user = int(rng.integers(0, 40))
        candidates = rng.choice(50, size=12, replace=False)
        before = calls[0]
        serve_page(user, candidates, rng)
        per_page.append(calls[0] - before)
    return per_page


def test_registry_fleet_pages_make_no_module_walks(world, tmp_path, monkeypatch):
    train, scenario = world
    factory = _factory(train)
    registry = ModelRegistry(tmp_path / "registry")
    first = registry.publish(factory())
    registry.promote(first.version)
    second = registry.publish(_factory(train, seed=1)())
    fleet = ServingFleet.from_registry(
        registry, factory, scenario, 2, seed=1, page_size=8,
        clock=lambda: 0.0,
    )
    calls = _count_module_walks(monkeypatch)

    def swap_all(version):
        for replica in fleet.replicas:
            replica.service.swap_model(registry.load_model(version, factory))

    def promote():
        registry.promote(second.version)
        swap_all(second.version)

    def rollback():
        swap_all(registry.rollback().version)

    per_page = _serve(fleet.serve_page, calls, promote, rollback)
    assert registry.champion.version == first.version
    assert per_page[1:] == [0] * (N_PAGES - 1)
    assert fleet.stats.requests == N_PAGES


def test_bare_service_pages_make_no_module_walks(world, monkeypatch):
    train, scenario = world
    original = _factory(train)()
    ctr_provider = _factory(train, seed=2)()
    assert original.training and ctr_provider.training
    service = RankingService(
        original, scenario, page_size=8, ctr_provider=ctr_provider
    )
    assert not original.training and not ctr_provider.training
    calls = _count_module_walks(monkeypatch)

    promoted = _factory(train, seed=1)()
    per_page = _serve(
        service.serve_page,
        calls,
        promote=lambda: service.swap_model(promoted),
        rollback=lambda: service.swap_model(original),
    )
    assert not any(m.training for m in promoted.modules())
    assert service.model is original
    assert per_page[1:] == [0] * (N_PAGES - 1)
    assert service.stats.primary == N_PAGES


@pytest.mark.plan
def test_steady_pages_make_no_module_calls(world, monkeypatch):
    """The first page runs eagerly, the second traces the forward pass,
    and every later page -- primary model and ``ctr_provider`` alike --
    replays it without calling a module."""
    train, scenario = world
    model = _factory(train)()
    ctr_provider = _factory(train, seed=2)()
    service = RankingService(model, scenario, page_size=8, ctr_provider=ctr_provider)
    calls = _count_module_calls(monkeypatch)
    per_page = _serve(
        service.serve_page, calls, promote=lambda: None, rollback=lambda: None
    )
    assert per_page[0] > 0 and per_page[1] > 0
    assert per_page[2:] == [0] * (N_PAGES - 2)
    assert service.stats.primary == N_PAGES
    for scorer in (model, ctr_provider):
        assert scorer._forward.stats.replays == N_PAGES - 2
