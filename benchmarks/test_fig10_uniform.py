"""Benchmark: regenerate Fig. 10 (weighted FPR vs space, uniform costs)."""

from __future__ import annotations

from repro.experiments import fig10_uniform


def test_fig10_uniform_costs(benchmark, quick_config):
    result = benchmark.pedantic(
        fig10_uniform.run, args=(quick_config,), iterations=1, rounds=1
    )
    # Shape check: HABF beats the standard Bloom filter at every space point
    # on both datasets (the paper's headline non-learned comparison).
    for panel in ("a (shalla, non-learned)", "c (ycsb, non-learned)"):
        habf = result.series("weighted_fpr", panel=panel, algorithm="HABF")
        bf = result.series("weighted_fpr", panel=panel, algorithm="BF")
        assert habf and bf
        assert all(h <= b for h, b in zip(habf, bf))

    # Zero false negatives for every method at every point.
    assert all(row["fnr"] == 0.0 for row in result.rows)

    # Weighted FPR decreases (weakly) as space grows for HABF.
    for panel in ("a (shalla, non-learned)", "c (ycsb, non-learned)"):
        series = result.series("weighted_fpr", panel=panel, algorithm="HABF")
        assert series[-1] <= series[0]
