"""Shape-signature fallback policy for compiled execution plans.

A compiled plan is a bet that the next step looks exactly like the
traced one.  When it doesn't, training must degrade transparently:

* a ragged final batch runs eagerly for that one step and the plan is
  kept for the next full batch;
* mid-run vocab growth (a parameter's array is rebound) invalidates the
  plan for good and the next full-size batch re-traces;
* a model using an op the compiler can't lower (``getitem``) disables
  planning for the run and trains eagerly -- bit-exact either way.
"""

import numpy as np
import pytest

from repro.autograd.plan import PlanRunner
from repro.autograd.tensor import Tensor
from repro.data import load_scenario
from repro.data.batching import batch_iterator
from repro.models import ModelConfig, build_model
from repro.nn.module import Parameter
from repro.training import TrainConfig, TrainingEngine

pytestmark = pytest.mark.plan

MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)


@pytest.fixture(scope="module")
def world():
    train, test, _ = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=2000, n_test=300
    )
    return train, test


def _paired_models(train):
    eager = build_model("dcmt", train.schema, MODEL_CONFIG)
    planned = build_model("dcmt", train.schema, MODEL_CONFIG)
    return eager, planned


class TestRaggedBatchFallback:
    def test_final_ragged_batch_runs_eager_and_keeps_plan(self, world):
        """2000 rows / batch 256 leaves a ragged 208-row tail each epoch:
        those steps drop to eager, the plan replays again next epoch."""
        train, _ = world
        config = TrainConfig(epochs=2, batch_size=256, learning_rate=0.01, seed=7)
        model = build_model("dcmt", train.schema, MODEL_CONFIG)
        engine = TrainingEngine(model, config)
        engine.fit(train)
        stats = engine.plan_runner.stats
        assert stats.traces == 1
        assert stats.eager_steps == 2, "one ragged tail batch per epoch"
        assert stats.replays == 13, "all full-size batches after the trace"
        assert stats.retraces == 0
        assert engine.plan_runner.plan is not None, "ragged batch keeps the plan"

    def test_ragged_steps_are_bitwise_eager(self, world):
        """The ragged step's loss comes from the plain eager path."""
        train, _ = world
        eager, planned = _paired_models(train)
        runner = PlanRunner(planned, expected_batch_size=256)
        for batch in batch_iterator(train, 256, rng=np.random.default_rng(3)):
            le = eager.loss(batch)
            lp = runner.forward(batch)
            assert le.data == lp.data, "loss drifted between eager and plan"
        assert runner.stats.eager_steps > 0
        assert runner.stats.replays > 0


class TestVocabGrowthFallback:
    def test_param_rebind_invalidates_and_retraces(self, world):
        """Growing an embedding table rebinds its array; the stale plan
        must be dropped, the run must stay bit-exact, and the next
        full-size batch must re-trace."""
        train, _ = world
        eager, planned = _paired_models(train)
        runner = PlanRunner(planned, expected_batch_size=256)
        batches = [
            b
            for b in batch_iterator(train, 256, rng=np.random.default_rng(5))
            if b.clicks.shape[0] == 256
        ]

        def grow(model):
            table = model.embedding.tables["click_affinity_bucket"].weight
            extra = np.zeros((7,) + table.data.shape[1:], dtype=table.data.dtype)
            table.data = np.concatenate([table.data, extra])

        for step, batch in enumerate(batches):
            if step == 3:
                grow(eager)
                grow(planned)
            for model in (eager, planned):
                for p in model.parameters():
                    p.zero_grad()
            le = eager.loss(batch)
            lp = runner.forward(batch)
            assert le.data == lp.data
            le.backward()
            runner.backward(lp)
        assert runner.stats.retraces == 1
        assert runner.stats.traces == 2, "re-traced after the growth"
        assert runner.stats.replays == len(batches) - 2
        assert not runner.disabled

    def test_grads_identical_after_retrace(self, world):
        train, _ = world
        eager, planned = _paired_models(train)
        runner = PlanRunner(planned, expected_batch_size=256)
        batches = [
            b
            for b in batch_iterator(train, 256, rng=np.random.default_rng(5))
            if b.clicks.shape[0] == 256
        ][:5]
        for step, batch in enumerate(batches):
            if step == 3:
                for model in (eager, planned):
                    t = model.embedding.tables["click_affinity_bucket"].weight
                    t.data = np.concatenate([t.data, np.zeros((7, t.data.shape[1]))])
            for model in (eager, planned):
                for p in model.parameters():
                    p.zero_grad()
            eager.loss(batch).backward()
            runner.backward(runner.forward(batch))
        for pe, pp in zip(eager.parameters(), planned.parameters()):
            ge, gp = pe.grad, pp.grad
            if ge is None:
                assert gp is None
                continue
            if not isinstance(ge, np.ndarray):
                ge, gp = ge.to_dense(), gp.to_dense()
            assert (ge == gp).all(), "gradient drifted after retrace"


class _SliceModel:
    """Minimal model whose loss uses ``getitem`` -- not plan-compilable."""

    training = True

    def __init__(self, n):
        self.w = Parameter(np.linspace(0.1, 1.0, n))

    def parameters(self):
        return [self.w]

    def loss(self, batch) -> Tensor:
        clicks = Tensor(batch.clicks.astype(np.float64))
        scored = self.w[: clicks.data.shape[0]] * clicks
        return (scored * scored).sum()


class TestUnsupportedOpFallback:
    def test_unsupported_op_disables_plan_and_trains_eagerly(self, world):
        train, _ = world
        model = _SliceModel(512)
        runner = PlanRunner(model, expected_batch_size=256)
        losses = []
        for batch in batch_iterator(train, 256, rng=np.random.default_rng(9)):
            loss = runner.forward(batch)
            runner.backward(loss)
            losses.append(loss.item())
        assert runner.disabled
        assert "getitem" in (runner.stats.disabled_reason or "")
        assert runner.stats.traces == 1, "one failed trace, then eager forever"
        assert runner.stats.replays == 0

        reference = _SliceModel(512)
        expected = []
        for batch in batch_iterator(train, 256, rng=np.random.default_rng(9)):
            loss = reference.loss(batch)
            loss.backward()
            expected.append(loss.item())
        assert losses == expected


class TestQuarantineVocabGrowth:
    """Catalog churn end to end under a compiled plan: OOV rows are
    quarantined, the ``item_id`` embedding grows in place, held rows are
    re-admitted, and the plan answers the parameter rebind with
    invalidate + re-trace -- bit-exact against eager throughout."""

    SERVING_VOCAB = 44  # the world has 50 items; ids 44..49 are churn

    def _shrunk_schema(self, schema):
        from dataclasses import replace as dc_replace

        from repro.data.schema import FeatureSchema

        sparse = [
            dc_replace(f, vocab_size=self.SERVING_VOCAB)
            if f.name == "item_id"
            else f
            for f in schema.sparse
        ]
        return FeatureSchema(sparse=sparse, dense=list(schema.dense))

    def _models(self, train):
        schema = self._shrunk_schema(train.schema)
        return (
            build_model("dcmt", schema, MODEL_CONFIG),
            build_model("dcmt", schema, MODEL_CONFIG),
        )

    def test_quarantine_grow_readmit_retraces_bit_exact(self, world):
        from repro.data.ingest import quarantine_oov_rows

        train, _ = world
        admitted, held, store = quarantine_oov_rows(
            train, {"item_id": self.SERVING_VOCAB}
        )
        assert held is not None, "the world must contain churn ids"
        assert len(admitted) + len(held) == len(train)
        assert int(admitted.sparse["item_id"].max()) < self.SERVING_VOCAB
        assert int(held.sparse["item_id"].min()) >= self.SERVING_VOCAB
        assert len(store.rows) == len(held)

        eager, planned = self._models(admitted)
        runner = PlanRunner(planned, expected_batch_size=256)

        def lockstep(dataset, rng_seed, n_batches):
            batches = [
                b
                for b in batch_iterator(
                    dataset, 256, rng=np.random.default_rng(rng_seed)
                )
                if b.clicks.shape[0] == 256
            ][:n_batches]
            for batch in batches:
                for model in (eager, planned):
                    for p in model.parameters():
                        p.zero_grad()
                le = eager.loss(batch)
                lp = runner.forward(batch)
                assert le.data == lp.data, "loss drifted from eager"
                le.backward()
                runner.backward(lp)
            return len(batches)

        pre = lockstep(admitted, rng_seed=5, n_batches=3)
        assert runner.stats.traces == 1 and runner.stats.retraces == 0

        # Churn lands: grow the serving vocabulary to the full catalog
        # and re-admit exactly the held rows.
        full_vocab = int(train.schema.vocab_sizes()["item_id"])
        for model in (eager, planned):
            model.embedding.tables["item_id"].grow(
                full_vocab - self.SERVING_VOCAB
            )
        readmitted, still_held, _ = quarantine_oov_rows(
            held, {"item_id": full_vocab}
        )
        assert still_held is None and len(readmitted) == len(held)

        post = lockstep(train, rng_seed=7, n_batches=3)
        assert runner.stats.retraces == 1, "rebind must invalidate the plan"
        assert runner.stats.traces == 2, "next full batch must re-trace"
        assert runner.stats.replays == pre + post - 2
        assert not runner.disabled

        for pe, pp in zip(eager.parameters(), planned.parameters()):
            ge, gp = pe.grad, pp.grad
            if ge is None:
                assert gp is None
                continue
            if not isinstance(ge, np.ndarray):
                ge, gp = ge.to_dense(), gp.to_dense()
            assert (ge == gp).all(), "gradient drifted after churn retrace"

    def test_grown_rows_are_zero_until_retrained(self, world):
        train, _ = world
        eager, _ = self._models(train)
        table = eager.embedding.tables["item_id"]
        before = table.weight.data.copy()
        table.grow(6)
        assert table.num_embeddings == self.SERVING_VOCAB + 6
        np.testing.assert_array_equal(
            table.weight.data[: self.SERVING_VOCAB], before
        )
        assert not table.weight.data[self.SERVING_VOCAB :].any()
