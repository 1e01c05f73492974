"""The engine over streaming sources: parity and mid-epoch resume.

Two invariants:

* **Source transparency.** ``TrainingEngine.fit`` on an
  ``InMemorySource`` lands on bit-identical parameters to ``fit`` on
  the raw dataset -- for every Table III model family, with the
  compiled execution plan both off and on.
* **Streaming kill/resume.** A run over a ``ChunkedCSVSource`` killed
  mid-epoch and resumed from its newest checkpoint lands on the same
  parameters as the never-killed run: the snapshot's ``batch_in_epoch``
  is the stream cursor, and the source's skip path keeps the RNG
  stream aligned while skipping whole chunks unmaterialised.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.data import load_scenario
from repro.data.loaders import export_csv_dataset
from repro.data.stream import ChunkedCSVSource, InMemorySource
from repro.models import ModelConfig, build_model
from repro.training import TrainConfig, create_engine, fit_model
from tests.fit_callbacks import reliability_stack

pytestmark = pytest.mark.stream

MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
TRAIN_CONFIG = TrainConfig(epochs=2, batch_size=256, learning_rate=0.01, seed=7)

PARITY_MODELS = ("dcmt", "dcmt_cf", "esmm", "escm2_ipw", "escm2_dr")


@pytest.fixture(scope="module")
def world():
    train, test, _ = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=2000, n_test=300
    )
    return train, test


@pytest.fixture(scope="module")
def csv_source(world, tmp_path_factory):
    train, _ = world
    path = export_csv_dataset(
        train, tmp_path_factory.mktemp("stream_engine") / "train.csv"
    )
    return ChunkedCSVSource(path, chunk_rows=256)


def param_digest(model):
    h = hashlib.sha256()
    state = model.state_dict()
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class TestSourceTransparency:
    @pytest.mark.parametrize("name", PARITY_MODELS)
    def test_in_memory_source_is_bit_exact(self, world, name):
        train, _ = world

        direct = build_model(name, train.schema, MODEL_CONFIG)
        direct_history = fit_model(direct, train, TRAIN_CONFIG)

        sourced = build_model(name, train.schema, MODEL_CONFIG)
        sourced_history = fit_model(sourced, InMemorySource(train), TRAIN_CONFIG)

        assert sourced_history.epoch_losses == direct_history.epoch_losses
        assert param_digest(sourced) == param_digest(direct)


class TestChunkGauge:
    def test_rows_parsed_once_and_materialized_per_epoch(self, world, tmp_path):
        """A 3-epoch fit parses the CSV once, at construction, and reads
        every kept row back once per epoch."""
        train, _ = world
        source = ChunkedCSVSource(
            export_csv_dataset(train, tmp_path / "train.csv"), chunk_rows=256
        )
        assert source.gauge.rows_parsed == source.report.total_rows
        assert source.gauge.rows_materialized == 0
        model = build_model("dcmt", source.schema, MODEL_CONFIG)
        fit_model(model, source, TRAIN_CONFIG.with_overrides(epochs=3))
        assert source.gauge.rows_parsed == source.report.total_rows
        assert source.gauge.rows_materialized == 3 * len(source)


class TestStreamingKillResume:
    def test_resume_matches_uninterrupted_run(self, csv_source, tmp_path):
        source = csv_source

        def reliability():
            return reliability_stack(
                TRAIN_CONFIG,
                checkpoint_dir=str(tmp_path),
                checkpoint_every_n_batches=2,
            )

        reference = build_model("dcmt", source.schema, MODEL_CONFIG)
        history = fit_model(reference, source, TRAIN_CONFIG)
        expected_losses = history.epoch_losses
        expected_digest = param_digest(reference)

        class Killed(RuntimeError):
            pass

        doomed = build_model("dcmt", source.schema, MODEL_CONFIG)
        engine = create_engine(doomed, TRAIN_CONFIG)
        real_step, calls = engine.optimizer.step, [0]

        def dying_step():
            calls[0] += 1
            if calls[0] > 5:  # dies inside epoch 0 (9+ batches/epoch)
                raise Killed
            real_step()

        engine.optimizer.step = dying_step
        with pytest.raises(Killed):
            engine.fit(source, callbacks=reliability())
        assert list(Path(tmp_path).glob("*.ckpt"))

        resumed = build_model(
            "dcmt", source.schema, MODEL_CONFIG.with_overrides(seed=99)
        )
        resumed_history = create_engine(resumed, TRAIN_CONFIG).fit(
            source, resume_from=tmp_path, callbacks=reliability()
        )
        assert resumed_history.epoch_losses == expected_losses
        assert param_digest(resumed) == expected_digest

    def test_full_epoch_batch_count_respects_chunk_tails(self, csv_source):
        model = build_model("esmm", csv_source.schema, MODEL_CONFIG)
        history = fit_model(
            model, csv_source, TRAIN_CONFIG.with_overrides(epochs=1)
        )
        assert history.epoch_losses  # trained through the whole file
