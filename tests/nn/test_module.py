"""Tests for Module/Parameter discovery, modes, and state dicts."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Dropout, Linear, Module, Parameter


class LinearDropout(Module):
    """A linear layer followed by dropout (train/eval propagation)."""

    def __init__(self, rng):
        super().__init__()
        self.linear = Linear(4, 4, rng)
        self.dropout = Dropout(0.5, rng)

    def forward(self, x):
        return self.dropout(self.linear(x))


class TwoTower(Module):
    """A module exercising nested discovery (lists + dicts + children)."""

    def __init__(self, rng):
        super().__init__()
        self.shared = Linear(4, 8, rng)
        self.towers = [Linear(8, 1, rng), Linear(8, 1, rng)]
        self.extras = {"bias_like": Parameter(np.zeros(3))}

    def forward(self, x):
        h = self.shared(x)
        return [t(h) for t in self.towers]


class TestDiscovery:
    def test_parameters_found_recursively(self, rng):
        model = TwoTower(rng)
        names = dict(model.named_parameters())
        assert "shared.weight" in names
        assert "towers.0.weight" in names
        assert "towers.1.bias" in names
        assert "extras.bias_like" in names

    def test_parameter_count(self, rng):
        model = TwoTower(rng)
        # shared: 4*8+8, towers: 2*(8+1), extras: 3
        assert model.num_parameters() == 40 + 18 + 3

    def test_parameters_deduplicated(self, rng):
        model = TwoTower(rng)
        model.alias = model.shared  # same module twice
        params = model.parameters()
        assert len(params) == len({id(p) for p in params})

    def test_modules_iterates_children(self, rng):
        model = TwoTower(rng)
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds.count("Linear") == 3

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestModes:
    def test_train_eval_propagate(self, rng):
        model = LinearDropout(rng)
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears_all(self, rng):
        model = TwoTower(rng)
        outs = model(Tensor(np.ones((2, 4))))
        (outs[0].sum() + outs[1].sum()).backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_roundtrip(self, rng):
        a = TwoTower(rng)
        b = TwoTower(np.random.default_rng(999))
        b.load_state_dict(a.state_dict())
        for (name_a, pa), (name_b, pb) in zip(
            a.named_parameters(), b.named_parameters()
        ):
            assert name_a == name_b
            assert np.array_equal(pa.data, pb.data)

    def test_state_dict_is_a_copy(self, rng):
        model = TwoTower(rng)
        state = model.state_dict()
        state["shared.weight"][...] = 0.0
        assert not np.allclose(model.shared.weight.data, 0.0)

    def test_missing_key_rejected(self, rng):
        model = TwoTower(rng)
        state = model.state_dict()
        del state["shared.weight"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_unexpected_key_rejected(self, rng):
        model = TwoTower(rng)
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_rejected(self, rng):
        model = TwoTower(rng)
        state = model.state_dict()
        state["shared.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

