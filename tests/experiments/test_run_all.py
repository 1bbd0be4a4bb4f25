"""Tests for the run-everything driver (repro.experiments.run_all)."""

from __future__ import annotations

import pytest


from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentResult
from repro.experiments.run_all import ALL_FIGURES, run_all, summarize

MICRO = ExperimentConfig(
    shalla_positives=400,
    shalla_negatives=400,
    ycsb_positives=400,
    ycsb_negatives=380,
    space_points=1,
    cost_shuffles=1,
    query_sample=100,
)


class TestRunAll:
    def test_every_figure_has_a_runner(self):
        assert set(ALL_FIGURES) == {
            "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"
        }

    @pytest.mark.slow
    def test_run_all_writes_csvs(self, tmp_path):
        results = run_all(MICRO, output_dir=tmp_path)
        assert set(results) == set(ALL_FIGURES)
        for name, result in results.items():
            assert isinstance(result, ExperimentResult)
            assert result.rows
            csv_path = tmp_path / f"{name}.csv"
            assert csv_path.exists()
            assert csv_path.read_text().strip()
        summary_path = tmp_path / "summary.txt"
        assert summary_path.exists()
        assert "fig10" in summary_path.read_text()

    def test_summarize_handles_missing_figures(self):
        assert summarize({}) == "\n"

    def test_summarize_reports_ratios(self):
        fig12 = ExperimentResult(
            experiment_id="fig12",
            title="t",
            rows=[
                {"dataset": "shalla", "algorithm": "BF", "construction_ns_per_key": 100.0, "query_ns_per_key": 50.0},
                {"dataset": "shalla", "algorithm": "HABF", "construction_ns_per_key": 1000.0, "query_ns_per_key": 250.0},
            ],
        )
        text = summarize({"fig12": fig12})
        assert "construction ratio 10.0x" in text
        assert "query ratio 5.0x" in text
