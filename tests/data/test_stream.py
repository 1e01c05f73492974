"""The streaming data path: sources, bounded memory, provenance.

The acceptance drill: a ``ChunkedCSVSource`` trains on a CSV >= 10x
larger than its chunk budget while the :class:`ChunkMemoryGauge` proves
that at no point, construction included, does more than 1 chunk live in
memory; the chunked
arrays are bit-identical to a full in-memory load; strict-mode errors
keep the loader's file:line:column provenance; and the ``start_batch``
resume cursor yields batches bit-identical to an uninterrupted epoch.
"""

import csv

import numpy as np
import pytest

from repro.data import load_scenario
from repro.data.batching import batch_iterator
from repro.data.ingest import (
    BAD_DENSE,
    MALFORMED_ROW,
    IngestBudgetError,
    IngestPolicy,
)
from repro.data.ingest import load_csv_dataset_quarantined
from repro.data.loaders import (
    ColumnSpec,
    VocabularyMaps,
    export_csv_dataset,
    load_csv_dataset,
)
from repro.data.stream import (
    ChunkedCSVSource,
    InMemorySource,
    as_source,
)

pytestmark = pytest.mark.stream


@pytest.fixture(scope="module")
def world():
    train, test, _ = load_scenario(
        "ae_es", n_users=30, n_items=40, n_train=1200, n_test=200
    )
    return train, test


@pytest.fixture(scope="module")
def csv_path(world, tmp_path_factory):
    train, _ = world
    return export_csv_dataset(
        train, tmp_path_factory.mktemp("stream") / "train.csv"
    )


def collect(batches):
    return [
        (b.clicks.copy(), b.conversions.copy(), {k: v.copy() for k, v in b.sparse.items()})
        for b in batches
    ]


def assert_batches_equal(got, expected):
    assert len(got) == len(expected)
    for (gc, gv, gs), (ec, ev, es) in zip(got, expected):
        np.testing.assert_array_equal(gc, ec)
        np.testing.assert_array_equal(gv, ev)
        assert gs.keys() == es.keys()
        for k in gs:
            np.testing.assert_array_equal(gs[k], es[k])


# ----------------------------------------------------------------------
class TestInMemorySource:
    def test_bit_exact_with_batch_iterator(self, world):
        train, _ = world
        source = InMemorySource(train)
        got = collect(
            source.iter_batches(256, rng=np.random.default_rng(7), shuffle=True)
        )
        expected = collect(
            batch_iterator(train, 256, rng=np.random.default_rng(7), shuffle=True)
        )
        assert_batches_equal(got, expected)

    def test_start_batch_is_a_pure_skip(self, world):
        train, _ = world
        source = InMemorySource(train)
        full = collect(
            source.iter_batches(128, rng=np.random.default_rng(3), shuffle=True)
        )
        resumed = collect(
            source.iter_batches(
                128, rng=np.random.default_rng(3), shuffle=True, start_batch=4
            )
        )
        assert_batches_equal(resumed, full[4:])

    def test_len_and_sample_batch(self, world):
        train, _ = world
        source = InMemorySource(train)
        assert len(source) == len(train)
        probe = source.sample_batch(64)
        assert probe.size == 64
        np.testing.assert_array_equal(probe.clicks, train.clicks[:64])

    def test_as_source_wraps_and_passes_through(self, world):
        train, _ = world
        source = as_source(train)
        assert isinstance(source, InMemorySource)
        assert as_source(source) is source
        with pytest.raises(TypeError, match="InteractionDataset or DataSource"):
            as_source([1, 2, 3])


class TestBatchIteratorValidation:
    def test_drop_last_oversized_batch_is_a_clear_error(self, world):
        train, _ = world
        with pytest.raises(ValueError, match="would yield zero batches"):
            batch_iterator(
                train,
                len(train) + 1,
                rng=np.random.default_rng(0),
                drop_last=True,
            )

    def test_error_is_raised_eagerly_not_on_first_next(self, world):
        """The misconfiguration surfaces at call time, not iteration."""
        train, _ = world
        with pytest.raises(ValueError):
            batch_iterator(train, 50_000, drop_last=True, shuffle=False)


# ----------------------------------------------------------------------
class TestChunkedCSVSource:
    def test_arrays_bit_identical_to_full_load(self, world, csv_path):
        """Unshuffled chunked iteration concatenates to the in-memory
        arrays (shared dense stats pin the standardisation)."""
        full, vocabularies, stats = load_csv_dataset(csv_path)
        source = ChunkedCSVSource(csv_path, chunk_rows=100, dense_stats=stats)
        assert len(source) == len(full)

        batches = list(source.iter_batches(64, shuffle=False))
        clicks = np.concatenate([b.clicks for b in batches])
        np.testing.assert_array_equal(clicks, full.clicks)
        conversions = np.concatenate([b.conversions for b in batches])
        np.testing.assert_array_equal(conversions, full.conversions)
        for column in full.sparse:
            got = np.concatenate([b.sparse[column] for b in batches])
            np.testing.assert_array_equal(got, full.sparse[column])
        for column in full.dense:
            got = np.concatenate([b.dense[column] for b in batches])
            np.testing.assert_array_equal(got, full.dense[column])

    def test_incremental_vocabulary_matches_full_load(self, csv_path):
        full, vocabularies, _ = load_csv_dataset(csv_path)
        source = ChunkedCSVSource(csv_path, chunk_rows=100)
        for column, mapping in vocabularies.maps.items():
            assert source.vocabularies.maps[column] == mapping
        assert source.schema.vocab_sizes() == full.schema.vocab_sizes()

    def test_bounded_memory_over_10x_file(self, csv_path):
        """>= 10 chunks per epoch, never more than 1 resident at once:
        the chunk the metadata pass fills, or the one being trained on."""
        source = ChunkedCSVSource(csv_path, chunk_rows=100)
        n_chunks = len(source._plan.sizes)
        assert n_chunks >= 10
        assert source.gauge.peak_resident_chunks == 1  # the fill buffer
        assert source.gauge.chunks_materialized == 0
        for batch in source.iter_batches(
            64, rng=np.random.default_rng(0), shuffle=True
        ):
            assert source.gauge.resident_chunks <= 2
        assert source.gauge.peak_resident_chunks == 1
        assert source.gauge.resident_chunks == 0
        assert source.gauge.resident_bytes == 0
        assert source.gauge.chunks_materialized == n_chunks
        assert source.gauge.rows_materialized == len(source)

    def test_start_batch_skips_without_desync(self, csv_path):
        source = ChunkedCSVSource(csv_path, chunk_rows=100)
        full = collect(
            source.iter_batches(64, rng=np.random.default_rng(11), shuffle=True)
        )
        resumed = collect(
            source.iter_batches(
                64, rng=np.random.default_rng(11), shuffle=True, start_batch=5
            )
        )
        assert_batches_equal(resumed, full[5:])

    def test_skipped_chunks_are_not_materialized(self, csv_path):
        source = ChunkedCSVSource(csv_path, chunk_rows=100)
        n_per_epoch = source.n_batches_per_epoch(50, drop_last=False)
        before = source.gauge.chunks_materialized
        # Resume at the final batch: all earlier whole chunks skip.
        list(
            source.iter_batches(
                50,
                rng=np.random.default_rng(1),
                shuffle=True,
                start_batch=n_per_epoch - 1,
            )
        )
        assert source.gauge.chunks_materialized - before == 1

    def test_drop_last_bigger_than_chunk_is_an_error(self, csv_path):
        source = ChunkedCSVSource(csv_path, chunk_rows=100)
        with pytest.raises(ValueError, match="smallest chunk"):
            source.iter_batches(
                101, rng=np.random.default_rng(0), drop_last=True
            )

    def test_n_batches_per_epoch_counts_chunk_tails(self, csv_path):
        source = ChunkedCSVSource(csv_path, chunk_rows=100)
        got = sum(1 for _ in source.iter_batches(64, shuffle=False))
        assert got == source.n_batches_per_epoch(64, drop_last=False)
        # Per-chunk tails make this more than ceil(n / batch).
        assert got > -(-len(source) // 64)

    def test_sample_batch_is_deterministic_head(self, csv_path):
        source = ChunkedCSVSource(csv_path, chunk_rows=100)
        a, b = source.sample_batch(32), source.sample_batch(32)
        assert a.size == 32
        np.testing.assert_array_equal(a.clicks, b.clicks)
        np.testing.assert_array_equal(
            a.sparse["user_id"], b.sparse["user_id"]
        )


def epoch_arrays(source, batch_size=64):
    """One unshuffled epoch, concatenated back into whole columns."""
    batches = list(source.iter_batches(batch_size, shuffle=False))
    return {
        "clicks": np.concatenate([b.clicks for b in batches]),
        "conversions": np.concatenate([b.conversions for b in batches]),
        **{
            f"sparse.{c}": np.concatenate([b.sparse[c] for b in batches])
            for c in batches[0].sparse
        },
        **{
            f"dense.{c}": np.concatenate([b.dense[c] for b in batches])
            for c in batches[0].dense
        },
    }


def assert_arrays_match(arrays, dataset, rows=slice(None)):
    """Byte equality of every column, keys included, against ``dataset``."""
    expected = {
        "clicks": dataset.clicks[rows],
        "conversions": dataset.conversions[rows],
        **{f"sparse.{c}": v[rows] for c, v in dataset.sparse.items()},
        **{f"dense.{c}": v[rows] for c, v in dataset.dense.items()},
    }
    assert arrays.keys() == expected.keys()
    for key, values in expected.items():
        assert arrays[key].dtype == values.dtype, key
        assert arrays[key].tobytes() == values.tobytes(), key


def rewrite_csv(src, dst, edit):
    """Copy a CSV, letting ``edit(i, row)`` return the row to write."""
    with open(src, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    with open(dst, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i, row in enumerate(rows):
            writer.writerow(edit(i, dict(zip(header, row)), row, header))
    return dst


def copy_vocabularies(vocabularies):
    return VocabularyMaps({k: dict(v) for k, v in vocabularies.maps.items()})


class TestChunkedCSVParity:
    """Unshuffled epochs equal the materialising loaders, byte for byte.

    These pin what the chunked source must carry from its metadata pass
    to every epoch: repaired labels and dense values, hashed ids, frozen
    vocabulary lookups with OOV ids, and the head rows ``sample_batch``
    returns across a chunk boundary.
    """

    @pytest.fixture(scope="class")
    def spec(self, world):
        train, _ = world
        return ColumnSpec(
            dense_features=tuple(train.dense),
            wide_features=tuple(
                f.name for f in train.schema.sparse if f.kind == "wide"
            ),
        )

    @pytest.fixture(scope="class")
    def dirty_path(self, csv_path, tmp_path_factory):
        def edit(i, cells, row, header):
            if i % 97 == 5:
                cells["user_hist_ctr"] = "nan"
            elif i % 89 == 7:
                cells["item_hist_cvr"] = "inf" if i % 2 else "-inf"
            elif i % 83 == 11:
                cells["user_hist_ctr"] = "oops"
            elif i % 61 == 3:
                cells["click"], cells["conversion"] = "0", "1"
            elif i == 400:
                return row[:-1]  # ragged: always dropped
            elif i == 401:
                cells["click"] = "2"  # bad label: always dropped
            return [cells[c] for c in header]

        return rewrite_csv(
            csv_path, tmp_path_factory.mktemp("parity") / "dirty.csv", edit
        )

    @pytest.mark.parametrize("on_bad_dense", ["impute", "clip"])
    def test_quarantine_repairs_match_quarantined_load(
        self, dirty_path, spec, on_bad_dense
    ):
        policy = IngestPolicy(
            error_budget=0.5,
            on_bad_dense=on_bad_dense,
            on_label_inconsistency="repair",
            dense_default=0.25,
            dense_clip=3.0,
        )
        full = load_csv_dataset_quarantined(dirty_path, spec=spec, policy=policy)
        assert full.report.repaired_rows > 0
        assert full.report.dropped_rows == 2
        source = ChunkedCSVSource(
            dirty_path,
            chunk_rows=100,
            spec=spec,
            policy=policy,
            dense_stats=full.dense_stats,
        )
        assert source.report.to_dict() == full.report.to_dict()
        # The source retains the first quarantine_max_rows records.
        retained = [(r.line, r.reasons, r.action) for r in source.quarantine.rows]
        assert len(retained) == min(len(full.quarantine.rows), 64)
        assert retained == [
            (r.line, r.reasons, r.action) for r in full.quarantine.rows
        ][: len(retained)]
        assert source.vocabularies.maps == full.vocabularies.maps
        assert_arrays_match(epoch_arrays(source), full.dataset)

    def test_hashed_column_matches_full_load(self, csv_path, spec):
        hashed = ColumnSpec(
            dense_features=spec.dense_features,
            wide_features=spec.wide_features,
            hash_buckets={"user_id": 7, "item_id": 13},
        )
        full, _, stats = load_csv_dataset(csv_path, spec=hashed)
        source = ChunkedCSVSource(
            csv_path, chunk_rows=100, spec=hashed, dense_stats=stats
        )
        assert "user_id" not in source.vocabularies.maps
        assert_arrays_match(epoch_arrays(source), full)

    def test_frozen_vocabulary_split_with_oov_ids(
        self, world, csv_path, spec, tmp_path
    ):
        _, test = world
        _, vocabularies, stats = load_csv_dataset(csv_path, spec=spec)

        def edit(i, cells, row, header):
            if i % 7 == 0:
                cells["user_id"] = f"unseen-{i}"
            if i % 11 == 0:
                cells["item_id"] = f"unseen-{i}"
            return [cells[c] for c in header]

        test_path = rewrite_csv(
            export_csv_dataset(test, tmp_path / "test-clean.csv"),
            tmp_path / "test.csv",
            edit,
        )
        full, _, _ = load_csv_dataset(
            test_path,
            spec=spec,
            vocabularies=copy_vocabularies(vocabularies),
            freeze_vocabulary=True,
            dense_stats=stats,
        )
        assert (full.sparse["user_id"] == 0).any()
        assert (full.sparse["item_id"] == 0).any()
        frozen = copy_vocabularies(vocabularies)
        source = ChunkedCSVSource(
            test_path,
            chunk_rows=30,
            spec=spec,
            vocabularies=frozen,
            freeze_vocabulary=True,
            dense_stats=stats,
        )
        assert frozen.maps == vocabularies.maps  # frozen: nothing added
        assert_arrays_match(epoch_arrays(source, batch_size=16), full)

    def test_sample_batch_spans_chunks(self, csv_path, spec):
        full, _, stats = load_csv_dataset(csv_path, spec=spec)
        source = ChunkedCSVSource(
            csv_path, chunk_rows=100, spec=spec, dense_stats=stats
        )
        probe = source.sample_batch(250)
        assert probe.size == 250
        arrays = {
            "clicks": probe.clicks,
            "conversions": probe.conversions,
            **{f"sparse.{c}": v for c, v in probe.sparse.items()},
            **{f"dense.{c}": v for c, v in probe.dense.items()},
        }
        assert_arrays_match(arrays, full, rows=slice(0, 250))
        assert source.sample_batch(10**6).size == len(source)


class TestChunkedCSVSnapshot:
    def test_overwriting_the_csv_changes_no_batch(self, csv_path, tmp_path):
        """The metadata pass parses the file once; epochs read the
        spill, so the source is a snapshot of the file at construction."""
        path = tmp_path / "live.csv"
        path.write_bytes(csv_path.read_bytes())
        source = ChunkedCSVSource(path, chunk_rows=100)
        before = epoch_arrays(source)
        probe = source.sample_batch(150)

        def edit(i, cells, row, header):
            cells["click"], cells["conversion"] = "1", "1"
            return [cells[c] for c in header]

        rewrite_csv(csv_path, path, edit)
        after = epoch_arrays(source)
        assert after.keys() == before.keys()
        for key in before:
            assert after[key].tobytes() == before[key].tobytes(), key
        again = source.sample_batch(150)
        assert again.clicks.tobytes() == probe.clicks.tobytes()
        path.unlink()
        assert len(list(source.iter_batches(64, shuffle=False))) > 0

    def test_close_releases_the_spill(self, csv_path):
        source = ChunkedCSVSource(csv_path, chunk_rows=100)
        source.close()
        source.close()  # idempotent
        with pytest.raises(ValueError, match="closed file"):
            list(source.iter_batches(64, shuffle=False))


#: Both strict loaders, as sources: each must raise the same message.
strict_loads = pytest.mark.parametrize(
    "load",
    [
        lambda path, spec: ChunkedCSVSource(path, chunk_rows=10, spec=spec),
        lambda path, spec: InMemorySource(load_csv_dataset(path, spec=spec)[0]),
    ],
    ids=["chunked", "load_csv_dataset"],
)


class TestChunkedCSVProvenance:
    HEADER = "user_id,item_id,user_hist_ctr,click,conversion\n"
    SPEC = ColumnSpec(dense_features=("user_hist_ctr",))

    def write(self, tmp_path, rows):
        path = tmp_path / "dirty.csv"
        path.write_text(self.HEADER + "".join(rows))
        return path

    def raised(self, load, path, spec=ColumnSpec()):
        with pytest.raises(ValueError) as excinfo:
            load(path, spec)
        return str(excinfo.value)

    @strict_loads
    def test_strict_ragged_row_provenance(self, tmp_path, load):
        path = self.write(
            tmp_path, ["u1,i1,0.5,1,0\n", "u2,i2,0.4,0\n"]
        )
        assert self.raised(load, path) == (
            f"{path}:3: expected 5 cells, got 4; missing columns ['conversion']"
        )

    @strict_loads
    def test_strict_bad_dense_provenance(self, tmp_path, load):
        path = self.write(
            tmp_path, ["u1,i1,0.5,1,0\n", "u2,i2,oops,0,0\n"]
        )
        assert self.raised(load, path, self.SPEC) == (
            f"{path}:3: column 'user_hist_ctr': could not parse dense value 'oops'"
        )

    @strict_loads
    def test_strict_label_inconsistency_provenance(self, tmp_path, load):
        path = self.write(
            tmp_path, ["u1,i1,0.5,1,1\n", "u2,i2,0.4,0,1\n"]
        )
        assert self.raised(load, path) == (
            f"{path}:3: column 'conversion': conversion recorded on an "
            f"unclicked exposure; the behaviour path "
            f"exposure->click->conversion is violated"
        )

    @strict_loads
    def test_strict_bad_label_provenance(self, tmp_path, load):
        path = self.write(
            tmp_path, ["u1,i1,0.5,1,0\n", "u2,i2,0.4,2,0\n"]
        )
        assert self.raised(load, path) == (
            f"{path}:3: column 'click': labels must be 0/1, got '2'"
        )

    @strict_loads
    def test_strict_mode_loads_nan_dense_strings(self, tmp_path, load):
        """``float()`` parses ``nan``, so strict mode keeps the row;
        quarantine mode would count it as ``bad_dense``."""
        path = self.write(
            tmp_path, ["u1,i1,nan,1,0\n", "u2,i2,0.4,1,0\n"]
        )
        loaded = load(path, self.SPEC)
        assert len(loaded) == 2
        assert np.isnan(loaded.sample_batch(2).dense["user_hist_ctr"]).all()

    def test_quarantine_mode_drops_and_reports(self, tmp_path):
        rows = (
            ["u1,i1,0.5,1,1\n", "u2,i2,nan,1,0\n", "u3,i3,0.4,0\n"]
            + [f"u{i},i{i},0.{i},1,0\n" for i in range(4, 14)]
        )
        path = self.write(tmp_path, rows)
        policy = IngestPolicy(error_budget=0.5, on_bad_dense="impute")
        source = ChunkedCSVSource(path, chunk_rows=4, spec=self.SPEC, policy=policy)
        assert len(source) == len(rows) - 1  # the ragged row drops
        assert source.report.reason_counts[MALFORMED_ROW] == 1
        assert source.report.reason_counts[BAD_DENSE] == 1
        assert source.report.repaired_rows == 1
        # The imputed row streams with the default dense value.
        total = sum(b.size for b in source.iter_batches(5, shuffle=False))
        assert total == len(source)

    def test_quarantine_budget_enforced_at_construction(self, tmp_path):
        rows = ["u1,i1,bad,1,0\n", "u2,i2,bad,1,0\n", "u3,i3,0.4,1,0\n"]
        path = self.write(tmp_path, rows)
        policy = IngestPolicy(error_budget=0.25, on_bad_dense="drop")
        with pytest.raises(IngestBudgetError):
            ChunkedCSVSource(path, chunk_rows=4, spec=self.SPEC, policy=policy)
