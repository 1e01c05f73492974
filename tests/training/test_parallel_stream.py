"""The worker pool over the streaming data path.

The pool must compose with out-of-core sources without weakening
either side's invariants: the parent streams chunks under the same
``peak_resident_chunks <= 2`` memory bound (workers receive already
materialised shard slices and never read the source's spill file), a
pool fit leaves the parent's spill reads intact, and a mid-epoch
checkpoint resumed into a fresh pool re-draws the same chunk/row
permutations and lands on bit-identical parameters.
"""

import hashlib

import numpy as np
import pytest

from repro.data import load_scenario
from repro.data.loaders import export_csv_dataset
from repro.data.stream import ChunkedCSVSource
from repro.models import ModelConfig, build_model
from repro.training import TrainConfig, create_engine
from repro.training.callbacks import CheckpointCallback

pytestmark = [pytest.mark.parallel, pytest.mark.stream]

MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
CONFIG = TrainConfig(
    epochs=2, batch_size=256, learning_rate=0.01, seed=7, num_workers=2
)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    train, _, _ = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=1500, n_test=200
    )
    return export_csv_dataset(
        train, tmp_path_factory.mktemp("parallel_stream") / "train.csv"
    )


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


def test_parallel_fit_keeps_streaming_memory_bound(csv_path):
    source = ChunkedCSVSource(csv_path, chunk_rows=256)
    model = build_model("dcmt", source.schema, MODEL_CONFIG)
    history = create_engine(model, CONFIG).fit(source)
    assert history.n_epochs_run == CONFIG.epochs
    assert source.gauge.peak_resident_chunks <= 2
    assert source.gauge.chunks_materialized > 0


def test_parallel_matches_serial_sharded_on_stream(csv_path):
    serial = build_model(
        "dcmt", ChunkedCSVSource(csv_path, chunk_rows=256).schema, MODEL_CONFIG
    )
    serial_history = create_engine(
        serial, CONFIG.with_overrides(num_workers=None, num_shards=2)
    ).fit(ChunkedCSVSource(csv_path, chunk_rows=256))

    pooled = build_model(
        "dcmt", ChunkedCSVSource(csv_path, chunk_rows=256).schema, MODEL_CONFIG
    )
    pooled_history = create_engine(pooled, CONFIG).fit(
        ChunkedCSVSource(csv_path, chunk_rows=256)
    )

    assert pooled_history.epoch_losses == serial_history.epoch_losses
    assert param_digest(pooled) == param_digest(serial)


def test_serial_epoch_after_pool_fit_reads_identical_batches(csv_path):
    """Forked workers inherit the spill's file description; reads use
    explicit offsets, so a pool fit leaves the parent's reads intact."""

    def epoch(source):
        batches = source.iter_batches(100, rng=np.random.default_rng(3))
        return [
            (b.clicks.tobytes(), {k: v.tobytes() for k, v in b.sparse.items()})
            for b in batches
        ]

    source = ChunkedCSVSource(csv_path, chunk_rows=256)
    before = epoch(source)
    model = build_model("dcmt", source.schema, MODEL_CONFIG)
    create_engine(model, CONFIG).fit(source)
    assert epoch(source) == before


def test_mid_epoch_resume_redraws_identical_permutations(csv_path, tmp_path):
    source = ChunkedCSVSource(csv_path, chunk_rows=256)

    reference = build_model("dcmt", source.schema, MODEL_CONFIG)
    expected_history = create_engine(reference, CONFIG).fit(source)

    class Killed(RuntimeError):
        pass

    doomed = build_model("dcmt", source.schema, MODEL_CONFIG)
    engine = create_engine(doomed, CONFIG)
    real_step, calls = engine.optimizer.step, [0]

    def dying_step():
        calls[0] += 1
        if calls[0] > 3:  # dies inside epoch 0 (6 batches/epoch)
            raise Killed
        real_step()

    engine.optimizer.step = dying_step
    with pytest.raises(Killed):
        engine.fit(
            source,
            callbacks=[CheckpointCallback(str(tmp_path), every_n_batches=2)],
        )

    resumed = build_model(
        "dcmt", source.schema, MODEL_CONFIG.with_overrides(seed=99)
    )
    history = create_engine(resumed, CONFIG).fit(source, resume_from=tmp_path)
    assert history.epoch_losses == expected_history.epoch_losses
    assert param_digest(resumed) == param_digest(reference)
