"""Unit tests for Table4Result analytics (no training involved)."""

import numpy as np

from repro.experiments import runner
from repro.experiments.table4_offline import CellResult, Table4Result


def make_result():
    models = ["esmm", "mmoe", "dcmt_pd", "dcmt_cf", "dcmt"]
    datasets = ["ds_a", "ds_b"]
    values = {
        ("ds_a", "esmm"): 0.70,
        ("ds_a", "mmoe"): 0.60,
        ("ds_a", "dcmt_pd"): 0.71,
        ("ds_a", "dcmt_cf"): 0.72,
        ("ds_a", "dcmt"): 0.75,
        ("ds_b", "esmm"): 0.65,
        ("ds_b", "mmoe"): 0.66,
        ("ds_b", "dcmt_pd"): 0.64,
        ("ds_b", "dcmt_cf"): 0.66,
        ("ds_b", "dcmt"): 0.69,
    }
    cells = {
        key: CellResult(
            cvr_auc=value,
            cvr_auc_std=0.01,
            ctcvr_auc=value + 0.05,
            cvr_auc_do=value - 0.02,
        )
        for key, value in values.items()
    }
    return Table4Result(datasets=datasets, models=models, cells=cells)


class TestAnalytics:
    def test_best_baseline_per_dataset(self):
        result = make_result()
        assert result.best_baseline("ds_a") == ("esmm", 0.70)
        assert result.best_baseline("ds_b") == ("mmoe", 0.66)

    def test_improvement(self):
        result = make_result()
        assert np.isclose(result.improvement("ds_a"), (0.75 - 0.70) / 0.70)
        assert np.isclose(result.improvement("ds_b"), (0.69 - 0.66) / 0.66)

    def test_average_improvement(self):
        result = make_result()
        expected = np.mean(
            [(0.75 - 0.70) / 0.70, (0.69 - 0.66) / 0.66]
        )
        assert np.isclose(result.average_improvement(), expected)

    def test_dcmt_vs_variant(self):
        result = make_result()
        expected = np.mean(
            [(0.75 - 0.71) / 0.71, (0.69 - 0.64) / 0.64]
        )
        assert np.isclose(result.dcmt_vs_variant("dcmt_pd"), expected)


class TestRendering:
    def test_plain_render(self):
        text = make_result().render()
        assert "Table IV" in text
        assert "Improvement" in text
        assert "paper: +1.07%" in text
        assert "DCMT vs DCMT_PD" in text

    def test_std_render(self):
        text = make_result().render(show_std=True)
        assert "±0.010" in text

    def test_do_diagnostic_panel(self):
        text = make_result().render_do_diagnostic()
        assert "potential outcomes" in text
        assert "ds_a" in text
        # value 0.75 - 0.02 appears for dcmt on ds_a
        assert "0.7300" in text

    def test_do_diagnostic_without_oracle(self):
        result = make_result()
        for key in result.cells:
            cell = result.cells[key]
            result.cells[key] = CellResult(
                cvr_auc=cell.cvr_auc,
                cvr_auc_std=cell.cvr_auc_std,
                ctcvr_auc=cell.ctcvr_auc,
                cvr_auc_do=None,
            )
        text = result.render_do_diagnostic()
        assert "-" in text

    def test_without_ablations(self):
        result = make_result()
        result.models = ["esmm", "mmoe", "dcmt"]
        result.cells = {
            k: v for k, v in result.cells.items() if k[1] in result.models
        }
        text = result.render()
        assert "DCMT vs DCMT_PD" not in text


def test_cli_table4_prints_the_oracle_panel(monkeypatch, capsys):
    """``dcmt-experiments table4`` prints the observed-label table and
    then the oracle ``r(do(o=1))`` panel (canned result, no training)."""
    result = make_result()
    monkeypatch.setattr(runner, "run_table4", lambda config: result)
    assert runner.main(["table4", "--seeds", "0"]) == 0
    out = capsys.readouterr().out
    assert result.render() in out
    panel = result.render_do_diagnostic()
    assert panel in out
    assert out.index(result.render()) < out.index(panel)
    assert "0.73" in panel  # ds_a/dcmt: 0.75 - 0.02
