"""Forward-only replay behind ``MultiTaskModel.predict``.

An eval-mode model compiles its forward pass once a batch signature
repeats, and later calls run a flat kernel loop.  The program must be
invisible in every predicted bit: each plan-supported registry model
matches an eager twin at every batch size, after an in-place parameter
update, after vocab growth and after a parameter-plane rebind.  Models
the compiler cannot lower or bind predict eagerly and say why; an
out-of-vocabulary id fails exactly as it does eagerly; a one-off batch
builds nothing; and a model holds at most one program.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.autograd.plan import _value_getter
from repro.data import load_scenario
from repro.data.dataset import Batch
from repro.models import MODEL_REGISTRY, ModelConfig, build_model
from repro.nn.embedding import trusted_indices
from repro.optim.plane import ParamPlane

pytestmark = pytest.mark.plan

MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
SIZES = (1, 16, 50, 400)
FIELDS = ("ctr", "cvr", "ctcvr", "cvr_counterfactual")

#: Models that predict eagerly, with a word of the recorded reason.
EAGER = {
    "cross_stitch": "'getitem'",
    "aitm": "batched",
    "esm2": "not bound",
    "escm2_dr": "not bound",
    "multi_dr": "not bound",
}
REPLAYED = sorted(set(MODEL_REGISTRY) - set(EAGER))


@pytest.fixture(scope="module")
def world():
    train, test, _ = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=1200, n_test=500
    )
    assert train.dense, "the world must exercise dense-column binding"
    return train, test


def _batch(test, n, offset=0):
    return test.subset(np.arange(offset, offset + n)).full_batch()


def _pair(train, name):
    """An eval-mode model and a training-mode twin with equal weights.

    ``predict`` on the training-mode twin is always eager (dropout is 0,
    so its eval pass is the same function).
    """
    model = build_model(name, train.schema, MODEL_CONFIG).eval()
    twin = build_model(name, train.schema, MODEL_CONFIG)
    assert twin.training
    return model, twin


def _assert_same(got, want):
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), field


def _steady(model, twin, batch, calls=3):
    for _ in range(calls):
        _assert_same(model.predict(batch), twin.predict(batch))


@pytest.mark.parametrize("name", REPLAYED)
def test_replay_is_bit_identical_to_eager(world, name):
    train, test = world
    model, twin = _pair(train, name)
    runner = model._forward
    for n in SIZES:
        _steady(model, twin, _batch(test, n))
        _steady(model, twin, _batch(test, n, offset=50))
        assert runner.program is not None
    stats = runner.stats
    assert stats.disabled_reason is None
    assert stats.traces == len(SIZES)
    assert stats.replays == len(SIZES) * 4
    assert twin._forward.stats.traces == 0, "training mode never compiles"

    # In-place update: the program reads the live arrays, no re-trace.
    for a, b in zip(model.parameters(), twin.parameters()):
        a.data *= 1.25
        a.data += 0.01
        b.data[...] = a.data
    _steady(model, twin, _batch(test, 400, offset=7))
    assert stats.traces == len(SIZES) and stats.retraces == 0

    # Vocab growth rebinds a table's array: invalidate and rebuild.
    for m in (model, twin):
        m.embedding.tables["item_id"].grow(3)
    batch = _batch(test, 400, offset=7)
    batch.sparse["item_id"][0] = model.embedding.tables["item_id"].num_embeddings - 1
    _steady(model, twin, batch)
    assert stats.retraces == 1 and stats.traces == len(SIZES) + 1
    assert runner.program is not None


def test_parameter_plane_rebind_invalidates(world):
    train, test = world
    model, twin = _pair(train, "dcmt")
    batch = _batch(test, 16)
    _steady(model, twin, batch)
    assert model._forward.stats.traces == 1
    ParamPlane(model.parameters())  # rebinds every ``param.data`` to a view
    _steady(model, twin, batch)
    assert model._forward.stats.retraces == 1
    assert model._forward.stats.traces == 2


@pytest.mark.parametrize("name", sorted(EAGER))
def test_unsupported_models_predict_eagerly_with_a_reason(world, name):
    train, test = world
    model, twin = _pair(train, name)
    batch = _batch(test, 16)
    _steady(model, twin, batch, calls=4)
    stats = model._forward.stats
    assert model._forward.program is None
    assert EAGER[name] in stats.disabled_reason
    assert stats.traces == 1 and stats.replays == 0
    assert stats.eager_steps == 3


def test_one_off_batches_build_no_program(world):
    train, test = world
    model, twin = _pair(train, "dcmt")
    a, b = _batch(test, 16), _batch(test, 17)
    for batch in (a, b, a, b, _batch(test, 400), a):
        _assert_same(model.predict(batch), twin.predict(batch))
        assert model._forward.program is None
    assert model._forward.stats.traces == 0
    _steady(model, twin, a, calls=2)  # a, a: compiled on the repeat
    assert model._forward.stats.traces == 1


def test_a_model_holds_one_program(world):
    """A new steady signature replaces the program, and the old arena is
    freed at once (no cyclic GC needed); an interleaved one-off batch
    keeps the program."""
    train, test = world
    model, twin = _pair(train, "dcmt")
    pages = _batch(test, 16)
    _steady(model, twin, pages)
    first = model._forward.program
    _assert_same(model.predict(_batch(test, 400)), twin.predict(_batch(test, 400)))
    assert model._forward.program is first
    _steady(model, twin, pages, calls=1)
    assert model._forward.stats.replays == 2

    refs = [weakref.ref(buf) for buf in first.arena._slots.values()]
    del first
    gc.disable()
    try:
        _steady(model, twin, _batch(test, 50))
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
    assert model._forward.stats.traces == 2


def test_predictions_are_copies(world):
    train, test = world
    model, _ = _pair(train, "dcmt")
    first, second = _batch(test, 16), _batch(test, 16, offset=16)
    model.predict(first)
    model.predict(first)
    kept = model.predict(first)
    snapshot = kept.cvr.copy()
    model.predict(second)
    assert model._forward.stats.replays == 2
    np.testing.assert_array_equal(kept.cvr, snapshot)


class TestOutOfVocabulary:
    def _compiled(self, world):
        train, test = world
        model, twin = _pair(train, "dcmt")
        _steady(model, twin, _batch(test, 16))
        assert model._forward.program is not None
        return model, twin, test

    @pytest.mark.parametrize("bad", ["too_big", "negative"])
    def test_raises_the_eager_error(self, world, bad):
        model, twin, test = self._compiled(world)
        batch = _batch(test, 16)
        vocab = model.embedding.tables["item_id"].num_embeddings
        batch.sparse["item_id"][3] = vocab + 2 if bad == "too_big" else -1
        with pytest.raises(IndexError) as eager:
            twin.predict(batch)
        with pytest.raises(IndexError) as replayed:
            model.predict(batch)
        assert str(replayed.value) == str(eager.value)
        assert str(vocab) in str(replayed.value)
        assert model._forward.program is not None, "a bad request keeps the program"

    def test_trusted_indices_skip_the_check(self, world):
        """Inside ``trusted_indices`` neither path pre-scans; a negative
        id then wraps the same way in both."""
        model, twin, test = self._compiled(world)
        batch = _batch(test, 16)
        batch.sparse["item_id"][3] = -1
        with trusted_indices():
            _assert_same(model.predict(batch), twin.predict(batch))
        assert model._forward.stats.replays == 2


class TestValueBinding:
    """Which traced value operands bind to a batch field."""

    def _batch(self):
        n = 6
        return Batch(
            sparse={"item": np.arange(n, dtype=np.int64)},
            dense={
                "score": np.linspace(0.0, 1.0, n),
                "count": np.arange(n, dtype=np.int64),
            },
            clicks=np.zeros(n, dtype=np.int64),
            conversions=np.zeros(n, dtype=np.int64),
        )

    def _bound(self, arr, batch):
        bound = _value_getter(arr, batch)
        return None if bound is None else bound[0][:2]

    def test_batch_fields_bind(self):
        batch = self._batch()
        assert self._bound(batch.sparse["item"], batch) == ("sparse", "item")
        view = batch.dense["score"][:, None]
        assert self._bound(view, batch) == ("dense", "score")
        converted = np.asarray(batch.dense["count"], dtype=float)[:, None]
        assert self._bound(converted, batch) == ("dense", "count")

    def test_computed_values_do_not_bind(self):
        batch = self._batch()
        assert self._bound(np.asarray(1.0), batch) is None
        assert self._bound(batch.sparse["item"].copy(), batch) is None
        # Equal bytes by coincidence: same dtype, own memory.
        assert self._bound(np.abs(batch.dense["score"]), batch) is None
