"""Tests for ESM2 and the micro-action substrate."""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.data.batching import batch_iterator
from repro.data.synthetic import TARGET_ACTION_GIVEN_CLICK
from repro.models import ModelConfig, build_model
from repro.optim import Adam


@pytest.fixture(scope="module")
def world():
    train, test, scenario = load_scenario(
        "ae_es", n_users=60, n_items=80, n_train=4000, n_test=1000
    )
    return train, test, scenario


@pytest.fixture
def config():
    return ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)


class TestMicroActionGeneration:
    def test_actions_present_and_inside_clicks(self, world):
        train, test, _ = world
        for ds in (train, test):
            assert ds.actions is not None
            assert not np.any((ds.actions == 1) & (ds.clicks == 0))

    def test_action_rate_calibrated(self, world):
        train, _, _ = world
        clicked = train.clicks == 1
        rate = train.actions[clicked].mean()
        assert abs(rate - TARGET_ACTION_GIVEN_CLICK) < 0.12

    def test_actions_correlate_with_conversions(self, world):
        """Actions sit on the path to conversion: conversion rate among
        acted clicks exceeds the rate among non-acted clicks."""
        train, _, _ = world
        clicked = train.clicks == 1
        acted = clicked & (train.actions == 1)
        not_acted = clicked & (train.actions == 0)
        if acted.sum() > 20 and not_acted.sum() > 20:
            assert train.conversions[acted].mean() >= train.conversions[
                not_acted
            ].mean()

    def test_actions_optional(self):
        train, _, _ = load_scenario(
            "ae_es",
            n_users=30,
            n_items=40,
            n_train=500,
            n_test=100,
            include_micro_actions=False,
        )
        assert train.actions is None

    def test_subset_and_batching_carry_actions(self, world, rng):
        train, _, _ = world
        sub = train.subset(np.arange(100))
        assert sub.actions is not None
        batch = next(iter(batch_iterator(train, 64, rng)))
        assert batch.actions is not None
        assert len(batch.actions) == 64


class TestESM2:
    def test_forward_fields(self, world, config):
        train, _, _ = world
        model = build_model("esm2", train.schema, config)
        outputs = model.forward_tensors(train.full_batch())
        assert set(outputs) >= {"ctr", "action", "cvr", "ctcvr", "ctavr"}

    def test_cvr_is_mixture(self, world, config):
        train, _, _ = world
        model = build_model("esm2", train.schema, config)
        out = model.forward_tensors(train.full_batch())
        mixture = (
            out["action"].data * 0  # placeholder for clarity
            + out["action"].data * _buy_d(model, train)
            + (1 - out["action"].data) * _buy_o(model, train)
        )
        assert np.allclose(out["cvr"].data, mixture, atol=1e-12)

    def test_trains_with_actions(self, world, config):
        train, _, _ = world
        model = build_model("esm2", train.schema, config)
        losses = _train(model, train)
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_trains_without_actions(self, config):
        train, _, _ = load_scenario(
            "ae_es",
            n_users=30,
            n_items=40,
            n_train=1000,
            n_test=100,
            include_micro_actions=False,
        )
        model = build_model("esm2", train.schema, config)
        losses = _train(model, train, steps=10)
        assert all(np.isfinite(losses))

    def test_action_supervision_changes_learning(self, world, config):
        """Removing the action labels must change the learned model."""
        train, _, _ = world
        import dataclasses

        stripped = dataclasses.replace(train, actions=None)

        def run(dataset):
            model = build_model("esm2", dataset.schema, config)
            _train(model, dataset, steps=20)
            return model.predict(dataset.full_batch()).cvr

        with_actions = run(train)
        without = run(stripped)
        assert not np.allclose(with_actions, without)


def _train(model, dataset, steps=30):
    rng = np.random.default_rng(0)
    opt = Adam(model.parameters(), lr=0.01)
    losses = []
    while len(losses) < steps:
        for batch in batch_iterator(dataset, 256, rng):
            loss = model.loss(batch)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
            if len(losses) >= steps:
                break
    return losses


def _buy_d(model, dataset):
    from repro.models.components import probability

    deep, wide = model.embedding(dataset.full_batch())
    return probability(model.buy_after_action_tower(deep, wide)).data


def _buy_o(model, dataset):
    from repro.models.components import probability

    deep, wide = model.embedding(dataset.full_batch())
    return probability(model.buy_without_action_tower(deep, wide)).data
