"""Benchmark: regenerate Fig. 11 (weighted FPR vs space, Zipf(1.0) costs)."""

from __future__ import annotations

from repro.experiments import fig11_skewed


def test_fig11_skewed_costs(benchmark, quick_config):
    result = benchmark.pedantic(
        fig11_skewed.run, args=(quick_config,), iterations=1, rounds=1
    )
    # The paper's claim: under skewed costs HABF has the smallest weighted FPR
    # of the non-learned methods at every space setting.
    for panel in ("a (shalla, non-learned)", "c (ycsb, non-learned)"):
        rows = result.filter_rows(panel=panel)
        assert rows
        for space in sorted({row["space_mb"] for row in rows}):
            at_space = [row for row in rows if row["space_mb"] == space]
            habf = next(row for row in at_space if row["algorithm"] == "HABF")
            minimum = min(row["weighted_fpr"] for row in at_space)
            assert habf["weighted_fpr"] <= minimum + 1e-9

    # WBF participates in the skewed non-learned comparison, as in the paper.
    assert result.filter_rows(panel="a (shalla, non-learned)", algorithm="WBF")
