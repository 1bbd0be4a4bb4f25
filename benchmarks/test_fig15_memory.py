"""Benchmark: regenerate Fig. 15 — construction memory footprint."""

from __future__ import annotations

from repro.experiments import fig15_memory


def test_fig15_construction_memory(benchmark, quick_config):
    result = benchmark.pedantic(
        fig15_memory.run, args=(quick_config,), iterations=1, rounds=1
    )
    for dataset in ("shalla", "ycsb"):
        rows = {row["algorithm"]: row for row in result.filter_rows(dataset=dataset)}

        # The paper's ordering: BF needs the least construction memory, HABF a
        # constant factor more (negative keys + V and Γ indexes), f-HABF less
        # than HABF (no Γ), and the learned filters the most (training data).
        assert rows["BF"]["peak_construction_mb"] <= rows["HABF"]["peak_construction_mb"]
        assert rows["f-HABF"]["peak_construction_mb"] <= rows["HABF"]["peak_construction_mb"]
        for learned in ("LBF", "SLBF", "Ada-BF"):
            assert (
                rows[learned]["peak_construction_mb"]
                > rows["BF"]["peak_construction_mb"]
            )
