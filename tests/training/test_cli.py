"""Tests for the dcmt-train CLI."""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.data.loaders import export_csv_dataset
from repro.training.cli import build_parser, main


@pytest.fixture(scope="module")
def csv_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("csv")
    train_src, test_src, _ = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=2000, n_test=500
    )
    train_path = export_csv_dataset(train_src, out / "train.csv")
    test_path = export_csv_dataset(test_src, out / "test.csv")
    return train_path, test_path


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["--train", "a.csv", "--test", "b.csv"])
        assert args.model == "dcmt"
        assert args.hidden_sizes == [32, 16]

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--model", "nope", "--train", "a", "--test", "b"]
            )

    def test_train_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--test", "b.csv"])


class TestMain:
    def test_end_to_end(self, csv_world, tmp_path, capsys):
        train_path, test_path = csv_world
        checkpoint = tmp_path / "model.npz"
        exit_code = main(
            [
                "--model",
                "esmm",
                "--train",
                str(train_path),
                "--test",
                str(test_path),
                "--dense-features",
                "user_hist_ctr",
                "item_hist_cvr",
                "--wide-features",
                "click_affinity_bucket",
                "conv_affinity_bucket",
                "--epochs",
                "1",
                "--embedding-dim",
                "4",
                "--hidden-sizes",
                "8",
                "--checkpoint",
                str(checkpoint),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "CTR AUC" in out
        assert checkpoint.exists()

    def test_checkpoint_loadable(self, csv_world, tmp_path):
        train_path, test_path = csv_world
        checkpoint = tmp_path / "dcmt.npz"
        main(
            [
                "--train",
                str(train_path),
                "--test",
                str(test_path),
                "--dense-features",
                "user_hist_ctr",
                "item_hist_cvr",
                "--epochs",
                "1",
                "--embedding-dim",
                "4",
                "--hidden-sizes",
                "8",
                "--checkpoint",
                str(checkpoint),
            ]
        )
        from repro.data.loaders import ColumnSpec, load_csv_split
        from repro.models import ModelConfig, build_model
        from repro.nn.serialization import load_checkpoint

        spec = ColumnSpec(dense_features=("user_hist_ctr", "item_hist_cvr"))
        train, _ = load_csv_split(train_path, test_path, spec=spec)
        model = build_model(
            "dcmt", train.schema, ModelConfig(embedding_dim=4, hidden_sizes=(8,))
        )
        meta = load_checkpoint(model, checkpoint)
        assert meta["model"] == "dcmt"


class TestExportRoundTrip:
    def test_export_then_load(self, csv_world):
        from repro.data.loaders import ColumnSpec, load_csv_split

        train_path, test_path = csv_world
        spec = ColumnSpec(
            dense_features=("user_hist_ctr", "item_hist_cvr"),
            wide_features=("click_affinity_bucket", "conv_affinity_bucket"),
        )
        train, test = load_csv_split(train_path, test_path, spec=spec)
        assert len(train) == 2000
        assert len(test) == 500
        assert train.n_clicks > 0
        assert not np.any((train.conversions == 1) & (train.clicks == 0))
