"""Quarantine ingestion: dirty CSVs load, clean subsets are bit-exact.

The acceptance drill: a CSV with >= 5% corrupted rows (malformed
fields, NaN dense values, OOV ids, label inconsistencies) loads
successfully under the quarantine path, produces an ingest report with
per-reason counts, and -- under all-``drop`` policies -- yields a
dataset bit-identical to loading only the clean rows through the
strict loader, so it trains to identical metrics.  Raising the corrupt
fraction above the error budget aborts with a structured error.
"""

import json

import numpy as np
import pytest

from repro.data.ingest import (
    BAD_DENSE,
    BAD_LABEL,
    LABEL_INCONSISTENCY,
    MALFORMED_ROW,
    OOV_ID,
    IngestBudgetError,
    IngestPolicy,
    load_csv_dataset_quarantined,
)
from repro.data.loaders import ColumnSpec, load_csv_dataset

pytestmark = [pytest.mark.ingest, pytest.mark.robustness]

SPEC = ColumnSpec(dense_features=("score",), wide_features=("category",))

#: 16 clean rows.
CLEAN_ROWS = [
    f"u{i % 4},i{i % 5},cat_{i % 3},{0.25 * i:.2f},{int(i % 3 == 0)},"
    f"{int(i % 6 == 0)}"
    for i in range(16)
]

#: 6 corrupt rows (27% of the combined file -- well above 5%).
CORRUPT_ROWS = [
    "u0,i0,cat_0",  # malformed: 3 of 6 cells
    "u1,i1,cat_1,0.5,2,0",  # bad click label
    "u2,i2,cat_2,nan,1,0",  # NaN dense value
    "u3,i3,cat_0,inf,0,0",  # Inf dense value
    "u0,i4,cat_1,oops,1,1",  # unparseable dense value
    "u1,i0,cat_2,1.25,0,1",  # conversion without click
]

HEADER = "user_id,item_id,category,score,click,conversion"


def write_csv(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return path


@pytest.fixture
def dirty_csv(tmp_path):
    """Clean and corrupt rows interleaved deterministically."""
    rows = list(CLEAN_ROWS)
    for offset, bad in zip((2, 5, 8, 11, 14, 16), CORRUPT_ROWS):
        rows.insert(offset, bad)
    return write_csv(tmp_path / "dirty.csv", rows)


@pytest.fixture
def clean_csv(tmp_path):
    return write_csv(tmp_path / "clean.csv", CLEAN_ROWS)


DROP_ALL = IngestPolicy(
    error_budget=0.5,
    on_bad_dense="drop",
    on_label_inconsistency="drop",
    on_oov_id="drop",
)


class TestQuarantineLoad:
    def test_dirty_file_loads(self, dirty_csv):
        result = load_csv_dataset_quarantined(dirty_csv, spec=SPEC, policy=DROP_ALL)
        assert len(result.dataset) == len(CLEAN_ROWS)
        assert result.report.total_rows == len(CLEAN_ROWS) + len(CORRUPT_ROWS)
        assert result.report.loaded_rows == len(CLEAN_ROWS)
        assert result.report.dropped_rows == len(CORRUPT_ROWS)

    def test_per_reason_counts(self, dirty_csv):
        result = load_csv_dataset_quarantined(dirty_csv, spec=SPEC, policy=DROP_ALL)
        counts = result.report.reason_counts
        assert counts[MALFORMED_ROW] == 1
        assert counts[BAD_LABEL] == 1
        assert counts[BAD_DENSE] == 3  # nan, inf, unparseable
        assert counts[LABEL_INCONSISTENCY] == 1
        assert OOV_ID not in counts  # vocabulary not frozen

    def test_provenance_line_numbers(self, dirty_csv):
        result = load_csv_dataset_quarantined(dirty_csv, spec=SPEC, policy=DROP_ALL)
        lines = open(dirty_csv).read().splitlines()
        for row in result.quarantine.rows:
            assert lines[row.line - 1] == ",".join(row.raw)
        assert result.report.examples[BAD_DENSE] == [
            r.line for r in result.quarantine.examples(BAD_DENSE, 5)
        ]

    def test_clean_subset_bit_exact(self, dirty_csv, clean_csv):
        """Drop policies reproduce the strict load of only-clean rows."""
        quarantined = load_csv_dataset_quarantined(
            dirty_csv, spec=SPEC, policy=DROP_ALL
        )
        strict, vocab, stats = load_csv_dataset(clean_csv, spec=SPEC)
        got = quarantined.dataset
        assert np.array_equal(got.clicks, strict.clicks)
        assert np.array_equal(got.conversions, strict.conversions)
        for column in strict.sparse:
            assert np.array_equal(got.sparse[column], strict.sparse[column])
        for column in strict.dense:
            np.testing.assert_allclose(got.dense[column], strict.dense[column])
        assert quarantined.vocabularies.maps == vocab.maps
        assert quarantined.dense_stats == stats

    def test_trains_to_same_metrics_as_clean_subset(self, dirty_csv, clean_csv):
        from repro.models import ModelConfig, build_model
        from repro.training import TrainConfig
        from repro.training.engine import fit_model

        config = TrainConfig(epochs=2, batch_size=8, seed=0)
        histories = []
        for dataset in (
            load_csv_dataset_quarantined(
                dirty_csv, spec=SPEC, policy=DROP_ALL
            ).dataset,
            load_csv_dataset(clean_csv, spec=SPEC)[0],
        ):
            model = build_model(
                "esmm",
                dataset.schema,
                ModelConfig(embedding_dim=2, hidden_sizes=(4,), seed=0),
            )
            histories.append(fit_model(model, dataset, config).epoch_losses)
        assert histories[0] == histories[1]

    def test_empty_data_rows(self, tmp_path):
        path = write_csv(tmp_path / "headeronly.csv", [])
        result = load_csv_dataset_quarantined(path, spec=SPEC)
        assert len(result.dataset) == 0
        assert result.report.corrupt_fraction == 0.0

    def test_structural_errors_still_raise(self, tmp_path):
        path = tmp_path / "noconv.csv"
        path.write_text("user_id,click\nu1,1\n")
        with pytest.raises(ValueError, match="conversion"):
            load_csv_dataset_quarantined(path)


class TestRepairPolicies:
    def test_impute_bad_dense(self, tmp_path):
        path = write_csv(
            tmp_path / "f.csv",
            ["u1,i1,cat_a,nan,1,0", "u2,i2,cat_b,2.0,0,0"],
        )
        policy = IngestPolicy(
            error_budget=1.0, on_bad_dense="impute", dense_default=-1.0
        )
        result = load_csv_dataset_quarantined(path, spec=SPEC, policy=policy)
        assert result.report.repaired_rows == 1
        assert result.report.loaded_rows == 2
        # Raw values before standardisation: (-1.0, 2.0).
        mean, std = result.dense_stats["score"]
        assert mean == pytest.approx(0.5)
        raw = result.dataset.dense["score"] * std + mean
        np.testing.assert_allclose(raw, [-1.0, 2.0])

    def test_clip_infinite_dense(self, tmp_path):
        path = write_csv(
            tmp_path / "f.csv",
            ["u1,i1,cat_a,inf,1,0", "u2,i2,cat_b,-inf,0,0", "u3,i3,cat_c,bad,0,0"],
        )
        policy = IngestPolicy(
            error_budget=1.0, on_bad_dense="clip", dense_clip=10.0, dense_default=0.0
        )
        result = load_csv_dataset_quarantined(path, spec=SPEC, policy=policy)
        mean, std = result.dense_stats["score"]
        raw = result.dataset.dense["score"] * std + mean
        np.testing.assert_allclose(raw, [10.0, -10.0, 0.0])
        assert result.report.reason_counts[BAD_DENSE] == 3

    def test_repair_label_inconsistency(self, tmp_path):
        path = write_csv(
            tmp_path / "f.csv", ["u1,i1,cat_a,1.0,0,1", "u2,i2,cat_b,2.0,1,1"]
        )
        policy = IngestPolicy(error_budget=1.0, on_label_inconsistency="repair")
        result = load_csv_dataset_quarantined(path, spec=SPEC, policy=policy)
        assert result.report.repaired_rows == 1
        # The click label is trusted; the phantom conversion is zeroed.
        assert result.dataset.clicks.tolist() == [0, 1]
        assert result.dataset.conversions.tolist() == [0, 1]

    def test_oov_quarantined_under_frozen_vocab(self, tmp_path, clean_csv):
        _, vocab, stats = load_csv_dataset(clean_csv, spec=SPEC)
        path = write_csv(
            tmp_path / "test.csv",
            ["u0,i0,cat_0,1.0,1,0", "u999,i0,cat_0,2.0,0,0"],
        )
        imputed = load_csv_dataset_quarantined(
            path,
            spec=SPEC,
            policy=IngestPolicy(error_budget=1.0, on_oov_id="impute"),
            vocabularies=vocab,
            freeze_vocabulary=True,
            dense_stats=stats,
        )
        assert imputed.report.reason_counts[OOV_ID] == 1
        assert imputed.dataset.sparse["user_id"][1] == 0  # OOV bucket
        dropped = load_csv_dataset_quarantined(
            path,
            spec=SPEC,
            policy=IngestPolicy(error_budget=1.0, on_oov_id="drop"),
            vocabularies=vocab,
            freeze_vocabulary=True,
            dense_stats=stats,
        )
        assert dropped.report.loaded_rows == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="error_budget"):
            IngestPolicy(error_budget=1.5)
        with pytest.raises(ValueError, match="on_bad_dense"):
            IngestPolicy(on_bad_dense="wish")
        with pytest.raises(ValueError, match="on_label_inconsistency"):
            IngestPolicy(on_label_inconsistency="clip")
        with pytest.raises(ValueError, match="on_oov_id"):
            IngestPolicy(on_oov_id="clip")
        with pytest.raises(ValueError, match="dense_clip"):
            IngestPolicy(dense_clip=0.0)


class TestErrorBudget:
    def test_budget_exceeded_aborts_structured(self, dirty_csv):
        policy = IngestPolicy(
            error_budget=0.10,
            on_bad_dense="drop",
            on_label_inconsistency="drop",
        )
        with pytest.raises(IngestBudgetError) as excinfo:
            load_csv_dataset_quarantined(dirty_csv, spec=SPEC, policy=policy)
        report = excinfo.value.report
        assert report.corrupt_fraction > 0.10
        assert report.reason_counts[BAD_DENSE] == 3
        assert "error budget" in str(excinfo.value)
        # The structured report is JSON-serialisable for log pipelines.
        json.dumps(report.to_dict())

    def test_repaired_rows_count_against_budget(self, tmp_path):
        path = write_csv(
            tmp_path / "f.csv", ["u1,i1,cat_a,nan,1,0", "u2,i2,cat_b,2.0,0,0"]
        )
        policy = IngestPolicy(error_budget=0.25, on_bad_dense="impute")
        with pytest.raises(IngestBudgetError):
            load_csv_dataset_quarantined(path, spec=SPEC, policy=policy)

    def test_budget_abort_leaves_vocabularies_untouched(self, dirty_csv, tmp_path):
        """Every row is classified before any is indexed, so an
        over-budget load claims no id in the caller's vocabulary."""
        _, vocabularies, _ = load_csv_dataset(
            write_csv(tmp_path / "seen.csv", CLEAN_ROWS[:3]), spec=SPEC
        )
        before = {column: dict(ids) for column, ids in vocabularies.maps.items()}
        with pytest.raises(IngestBudgetError):
            load_csv_dataset_quarantined(
                dirty_csv,
                spec=SPEC,
                policy=IngestPolicy(error_budget=0.1),
                vocabularies=vocabularies,
            )
        assert vocabularies.maps == before

    def test_budget_boundary_is_inclusive(self, tmp_path):
        path = write_csv(
            tmp_path / "f.csv", ["u1,i1,cat_a,nan,1,0", "u2,i2,cat_b,2.0,0,0"]
        )
        policy = IngestPolicy(error_budget=0.5, on_bad_dense="impute")
        result = load_csv_dataset_quarantined(path, spec=SPEC, policy=policy)
        assert result.report.corrupt_fraction == 0.5  # == budget: allowed


class TestQuarantineStore:
    def test_dump_jsonl(self, dirty_csv, tmp_path):
        result = load_csv_dataset_quarantined(dirty_csv, spec=SPEC, policy=DROP_ALL)
        out = result.quarantine.dump_jsonl(tmp_path / "quarantine.jsonl")
        records = [json.loads(line) for line in open(out)]
        assert len(records) == len(CORRUPT_ROWS)
        assert {r["action"] for r in records} == {"dropped"}
        assert all(r["reasons"] for r in records)

    def test_examples_capped(self, dirty_csv):
        policy = IngestPolicy(
            error_budget=0.5,
            on_bad_dense="drop",
            on_label_inconsistency="drop",
            max_examples_per_reason=1,
        )
        result = load_csv_dataset_quarantined(dirty_csv, spec=SPEC, policy=policy)
        assert len(result.report.examples[BAD_DENSE]) == 1
