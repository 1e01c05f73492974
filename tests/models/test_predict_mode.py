"""``predict`` switches modes only for a model in training mode.

Outside a fit a model is in eval mode; ``predict`` on such a model
scores it as it stands and never writes a ``training`` flag.  A model
caught mid-fit (training mode) is scored in eval mode -- dropout off --
and handed back in training mode.
"""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.nn.dropout import Dropout
from repro.nn.module import Module


@pytest.fixture(scope="module")
def batch():
    train, _, _ = load_scenario(
        "ae_es", n_users=30, n_items=40, n_train=400, n_test=50
    )
    return train, train.subset(np.arange(64)).full_batch()


def _dropout_model(train):
    config = ModelConfig(embedding_dim=4, hidden_sizes=(8, 8), dropout=0.5, seed=0)
    return build_model("dcmt", train.schema, config)


def test_training_mode_predict_equals_eval_mode_predict(batch):
    train, rows = batch
    model = _dropout_model(train)
    assert any(isinstance(m, Dropout) for m in model.modules())
    assert all(m.training for m in model.modules())
    got = model.predict(rows)
    assert all(m.training for m in model.modules()), "training mode restored"

    reference = _dropout_model(train)
    reference.load_state_dict(model.state_dict())
    want = reference.eval().predict(rows)
    for field in ("ctr", "cvr", "ctcvr", "cvr_counterfactual"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def test_eval_mode_predict_touches_no_training_flag(batch, monkeypatch):
    train, rows = batch
    model = _dropout_model(train).eval()
    writes = []
    original = Module.__setattr__

    def recording(self, name, value):
        if name == "training":
            writes.append((type(self).__name__, value))
        original(self, name, value)

    monkeypatch.setattr(Module, "__setattr__", recording)
    model.predict(rows)
    assert writes == []
    assert not any(m.training for m in model.modules())
