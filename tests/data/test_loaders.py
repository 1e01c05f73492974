"""Tests for the real-data CSV loaders."""

import warnings

import numpy as np
import pytest

from repro.data.loaders import (
    ColumnSpec,
    VocabularyMaps,
    load_csv_dataset,
    load_csv_split,
)

TRAIN_CSV = """user_id,item_id,category,score,click,conversion
u1,i1,cat_a,0.5,1,1
u1,i2,cat_b,1.5,0,0
u2,i1,cat_a,2.5,1,0
u2,i3,cat_c,3.5,0,0
u3,i2,cat_b,0.5,1,1
"""

TEST_CSV = """user_id,item_id,category,score,click,conversion
u1,i9,cat_z,1.0,0,0
u9,i1,cat_a,2.0,1,1
"""


@pytest.fixture
def csv_files(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text(TRAIN_CSV)
    test.write_text(TEST_CSV)
    return train, test


SPEC = ColumnSpec(dense_features=("score",), wide_features=("category",))


class TestLoadCsvDataset:
    def test_basic_load(self, csv_files):
        train, _, _ = load_csv_dataset(csv_files[0], spec=SPEC)
        assert len(train) == 5
        assert train.n_clicks == 3
        assert train.n_conversions == 2
        assert train.name == "train"

    def test_schema_built(self, csv_files):
        train, _, _ = load_csv_dataset(csv_files[0], spec=SPEC)
        names = train.schema.feature_names
        assert set(names) == {"user_id", "item_id", "category", "score"}
        wide = [f.name for f in train.schema.sparse_by_kind("wide")]
        assert wide == ["category"]

    def test_ids_reindexed_densely(self, csv_files):
        train, vocab, _ = load_csv_dataset(csv_files[0], spec=SPEC)
        users = train.sparse["user_id"]
        assert users.min() >= 1  # 0 reserved for OOV
        assert vocab.vocab_size("user_id") == 4  # 3 users + OOV

    def test_dense_standardised(self, csv_files):
        train, _, stats = load_csv_dataset(csv_files[0], spec=SPEC)
        assert abs(train.dense["score"].mean()) < 1e-9
        assert "score" in stats

    def test_groups_guessed(self, csv_files):
        train, _, _ = load_csv_dataset(csv_files[0], spec=SPEC)
        groups = {f.name: f.group for f in train.schema.sparse}
        assert groups["user_id"] == "user"
        assert groups["item_id"] == "item"
        assert groups["category"] == "combination"

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,click\nu1,1\n")
        with pytest.raises(ValueError, match="conversion"):
            load_csv_dataset(path)

    def test_missing_dense_column(self, csv_files):
        with pytest.raises(ValueError, match="missing dense"):
            load_csv_dataset(
                csv_files[0], spec=ColumnSpec(dense_features=("nope",))
            )

    def test_non_binary_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,click,conversion\nu1,2,0\n")
        with pytest.raises(ValueError, match="0/1"):
            load_csv_dataset(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,click,conversion\nu1,1\n")
        with pytest.raises(ValueError, match="cells"):
            load_csv_dataset(path)

    def test_bad_label_error_names_column_and_position(self, tmp_path):
        """Label errors carry path, row number, and column name."""
        path = tmp_path / "bad.csv"
        path.write_text(
            "user_id,click,conversion\nu1,1,0\nu2,1,maybe\n"
        )
        with pytest.raises(ValueError) as excinfo:
            load_csv_dataset(path)
        message = str(excinfo.value)
        assert f"{path}:3" in message  # header is line 1
        assert "'conversion'" in message
        assert "'maybe'" in message

    def test_bad_click_error_names_click_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,click,conversion\nu1,yes,0\n")
        with pytest.raises(ValueError, match="column 'click'"):
            load_csv_dataset(path)

    def test_ragged_row_error_names_missing_columns(self, tmp_path):
        """Short rows report exactly which columns were truncated away."""
        path = tmp_path / "bad.csv"
        path.write_text("user_id,click,conversion\nu1,1\n")
        with pytest.raises(ValueError) as excinfo:
            load_csv_dataset(path)
        message = str(excinfo.value)
        assert f"{path}:2" in message
        assert "missing columns ['conversion']" in message

    def test_overlong_row_error_names_last_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,click,conversion\nu1,1,0,9,9\n")
        with pytest.raises(ValueError, match="beyond column 'conversion'"):
            load_csv_dataset(path)

    def test_bad_dense_value_error_names_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,score,click,conversion\nu1,notanumber,1,0\n")
        with pytest.raises(
            ValueError, match="column 'score'.*'notanumber'"
        ):
            load_csv_dataset(path, spec=ColumnSpec(dense_features=("score",)))

    def test_duplicate_header_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,click,click,conversion\nu1,1,1,0\n")
        with pytest.raises(ValueError, match="duplicate column 'click'"):
            load_csv_dataset(path)

    def test_empty_header_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,,click,conversion\nu1,x,1,0\n")
        with pytest.raises(ValueError, match="empty column name at position 1"):
            load_csv_dataset(path)

    def test_conversion_without_click_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,click,conversion\nu1,0,1\n")
        with pytest.raises(ValueError, match="behaviour path"):
            load_csv_dataset(path)

    def test_label_inconsistency_names_first_offending_line(self, tmp_path):
        """Same ``file:line: column`` provenance as the streaming loader,
        raised at the first bad row even when a later row is malformed."""
        path = tmp_path / "bad.csv"
        path.write_text(
            "user_id,click,conversion\nu1,1,1\nu2,0,1\nu3,0,1\nu4,1\n"
        )
        with pytest.raises(ValueError, match=rf"{path}:3: column 'conversion'"):
            load_csv_dataset(path)

    def test_header_only_file_gets_identity_dense_stats(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("user_id,score,click,conversion\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dataset, _, stats = load_csv_dataset(
                path, spec=ColumnSpec(dense_features=("score",))
            )
        assert stats == {"score": (0.0, 1.0)}
        assert len(dataset) == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv_dataset(path)


class TestLoadCsvSplit:
    def test_shared_vocabulary(self, csv_files):
        train, test = load_csv_split(*csv_files, spec=SPEC)
        # u1/i1 keep their train ids; u9/i9/cat_z fall into OOV (0).
        assert test.sparse["user_id"][0] == train.sparse["user_id"][0]
        assert test.sparse["user_id"][1] == 0
        assert test.sparse["item_id"][0] == 0
        assert test.sparse["category"][0] == 0

    def test_shared_schema_object(self, csv_files):
        train, test = load_csv_split(*csv_files, spec=SPEC)
        assert test.schema is train.schema

    def test_dense_stats_from_train(self, csv_files):
        train, test = load_csv_split(*csv_files, spec=SPEC)
        # test scores standardised with TRAIN mean/std, so not zero-mean.
        assert abs(test.dense["score"].mean()) > 1e-6

    def test_model_trains_on_loaded_data(self, csv_files):
        """End-to-end: a model built from the loaded schema trains."""
        from repro.models import ModelConfig, build_model

        train, test = load_csv_split(*csv_files, spec=SPEC)
        model = build_model(
            "esmm", train.schema, ModelConfig(embedding_dim=2, hidden_sizes=(4,))
        )
        loss = model.loss(train.full_batch())
        assert np.isfinite(loss.item())
        preds = model.predict(test.full_batch())
        assert preds.cvr.shape == (2,)


class TestFeatureHashing:
    def test_hash_deterministic(self):
        from repro.data.loaders import hash_feature

        assert hash_feature("u42", 1000) == hash_feature("u42", 1000)
        assert 0 <= hash_feature("anything", 7) < 7

    def test_hash_validation(self):
        from repro.data.loaders import hash_feature

        with pytest.raises(ValueError):
            hash_feature("x", 0)

    def test_hashed_column_schema_size(self, csv_files):
        spec = ColumnSpec(
            dense_features=("score",),
            wide_features=("category",),
            hash_buckets={"item_id": 16},
        )
        train, _, _ = load_csv_dataset(csv_files[0], spec=spec)
        sizes = train.schema.vocab_sizes()
        assert sizes["item_id"] == 16
        assert np.all(train.sparse["item_id"] < 16)

    def test_hashed_train_test_consistency(self, csv_files):
        """Hashed ids agree across splits with no shared vocabulary."""
        spec = ColumnSpec(
            dense_features=("score",),
            wide_features=("category",),
            hash_buckets={"item_id": 64},
        )
        train, test = load_csv_split(*csv_files, spec=spec)
        # i1 appears in both files; it must hash identically.
        from repro.data.loaders import hash_feature

        expected = hash_feature("i1", 64)
        assert train.sparse["item_id"][0] == expected
        assert test.sparse["item_id"][1] == expected

    def test_hash_distribution_spreads(self):
        from repro.data.loaders import hash_feature

        buckets = [hash_feature(f"id_{i}", 32) for i in range(2000)]
        counts = np.bincount(buckets, minlength=32)
        assert counts.min() > 0  # every bucket reached
        assert counts.max() < 4 * counts.mean()


class TestVocabularyMaps:
    def test_oov_when_frozen(self):
        vocab = VocabularyMaps()
        assert vocab.index("c", "a", frozen=False) == 1
        assert vocab.index("c", "b", frozen=True) == 0
        assert vocab.vocab_size("c") == 2

    def test_unknown_column_size(self):
        assert VocabularyMaps().vocab_size("missing") == 1
