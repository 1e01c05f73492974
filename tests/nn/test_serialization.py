"""Tests for model checkpointing and the optimizer state round trip."""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.nn import Linear
from repro.nn.serialization import FORMAT_VERSION, load_checkpoint, save_checkpoint
from repro.optim import Adam
from repro.optim.optimizer import Optimizer


@pytest.fixture(scope="module")
def world():
    train, test, _ = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=1000, n_test=300
    )
    return train, test


class TestRoundTrip:
    def test_simple_module(self, tmp_path, rng):
        layer = Linear(3, 2, rng)
        path = tmp_path / "layer.npz"
        save_checkpoint(layer, path)
        other = Linear(3, 2, np.random.default_rng(99))
        assert not np.allclose(other.weight.data, layer.weight.data)
        load_checkpoint(other, path)
        assert np.array_equal(other.weight.data, layer.weight.data)
        assert np.array_equal(other.bias.data, layer.bias.data)

    def test_full_dcmt_model(self, tmp_path, world):
        train, test = world
        config = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
        model = build_model("dcmt", train.schema, config)
        path = tmp_path / "dcmt.npz"
        save_checkpoint(model, path, metadata={"dataset": "ae_es"})

        clone = build_model("dcmt", train.schema, config.with_overrides(seed=5))
        meta = load_checkpoint(clone, path)
        assert meta["dataset"] == "ae_es"
        assert meta["model_name"] == "dcmt"

        original = model.predict(test.full_batch())
        restored = clone.predict(test.full_batch())
        assert np.array_equal(original.cvr, restored.cvr)
        assert np.array_equal(original.ctr, restored.ctr)

    def test_metadata_fields(self, tmp_path, rng):
        layer = Linear(2, 2, rng)
        path = tmp_path / "m.npz"
        save_checkpoint(layer, path)
        meta = load_checkpoint(Linear(2, 2, rng), path)
        assert meta["format_version"] == FORMAT_VERSION
        assert meta["num_parameters"] == layer.num_parameters()


class TestErrors:
    def test_architecture_mismatch(self, tmp_path, rng):
        save_checkpoint(Linear(3, 2, rng), tmp_path / "a.npz")
        with pytest.raises(KeyError):
            load_checkpoint(
                Linear(3, 2, rng, bias=False), tmp_path / "a.npz"
            )

    def test_shape_mismatch(self, tmp_path, rng):
        save_checkpoint(Linear(3, 2, rng), tmp_path / "a.npz")
        with pytest.raises(ValueError):
            load_checkpoint(Linear(4, 2, rng), tmp_path / "a.npz")

    def test_future_format_rejected(self, tmp_path, rng, monkeypatch):
        import repro.nn.serialization as ser

        layer = Linear(2, 2, rng)
        monkeypatch.setattr(ser, "FORMAT_VERSION", 99)
        save_checkpoint(layer, tmp_path / "future.npz")
        monkeypatch.setattr(ser, "FORMAT_VERSION", 1)
        with pytest.raises(ValueError, match="newer"):
            load_checkpoint(layer, tmp_path / "future.npz")

    def test_missing_metadata_tolerated(self, tmp_path, rng):
        layer = Linear(2, 2, rng)
        np.savez(tmp_path / "raw.npz", **layer.state_dict())
        meta = load_checkpoint(layer, tmp_path / "raw.npz")
        assert meta == {}


def _take_steps(model, optimizer, batch, n):
    for _ in range(n):
        loss = model.loss(batch)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()


class TestOptimizerState:
    """Adam's bias correction depends on ``_step_count`` and its update
    direction on the moment buffers -- losing either breaks bit-exact
    resume, so the ``state_dict`` round trip that training snapshots
    carry must preserve all of it."""

    @pytest.fixture()
    def trained(self, world):
        train, _ = world
        model = build_model(
            "dcmt", train.schema, ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
        )
        optimizer = Adam(model.parameters(), lr=0.01, weight_decay=1e-4)
        batch = train.subset(np.arange(256)).full_batch()
        _take_steps(model, optimizer, batch, 5)
        return model, optimizer, batch, train

    def test_adam_moments_and_step_count_round_trip(self, trained):
        model, optimizer, _, train = trained
        fresh_model = build_model(
            "dcmt", train.schema, ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=9)
        )
        fresh = Adam(fresh_model.parameters(), lr=0.5)
        fresh.load_state_dict(optimizer.state_dict())
        assert fresh._step_count == optimizer._step_count == 5
        assert fresh.lr == optimizer.lr
        assert fresh.weight_decay == optimizer.weight_decay
        for restored, original in zip(fresh._m, optimizer._m):
            assert np.array_equal(restored, original)
        for restored, original in zip(fresh._v, optimizer._v):
            assert np.array_equal(restored, original)

    def test_resumed_training_bit_exact(self, trained, tmp_path, world):
        """(5 steps, save, 5 more) == (5 steps, restore elsewhere, 5 more)."""
        model, optimizer, batch, train = trained
        config = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
        save_checkpoint(model, tmp_path / "model.npz")
        optimizer_state = optimizer.state_dict()

        # Continue the original run 5 more steps.
        _take_steps(model, optimizer, batch, 5)

        # Restore into fresh objects and take the same 5 steps.
        resumed = build_model("dcmt", train.schema, config.with_overrides(seed=3))
        load_checkpoint(resumed, tmp_path / "model.npz")
        resumed_opt = Adam(resumed.parameters(), lr=0.01, weight_decay=1e-4)
        resumed_opt.load_state_dict(optimizer_state)
        _take_steps(resumed, resumed_opt, batch, 5)

        original_state = model.state_dict()
        for key, value in resumed.state_dict().items():
            assert np.array_equal(original_state[key], value), key

    def test_type_mismatch_rejected(self, rng):
        layer = Linear(3, 2, rng)
        state = Adam(layer.parameters()).state_dict()
        with pytest.raises(ValueError, match="Adam"):
            Optimizer(layer.parameters()).load_state_dict(state)

    def test_shape_mismatch_rejected(self, rng):
        state = Adam(Linear(3, 2, rng).parameters()).state_dict()
        with pytest.raises(ValueError, match="shape"):
            Adam(Linear(4, 2, rng).parameters()).load_state_dict(state)

    def test_atomic_write_leaves_no_tmp(self, tmp_path, rng):
        save_checkpoint(Linear(2, 2, rng), tmp_path / "layer.npz")
        assert list(tmp_path.glob("*.tmp")) == []
