"""Benchmark: regenerate Fig. 12(a)/(b) — construction time per key."""

from __future__ import annotations

from repro.experiments import fig12_time


def test_fig12_construction_and_query_time(benchmark, quick_config):
    result = benchmark.pedantic(
        fig12_time.run, args=(quick_config,), iterations=1, rounds=1
    )
    for dataset in ("shalla", "ycsb"):
        rows = {row["algorithm"]: row for row in result.filter_rows(dataset=dataset)}

        # Construction-time ordering the paper reports: BF is the cheapest
        # hash-based build, HABF pays a constant factor over BF, and the
        # learned filters are the most expensive because of model training.
        assert rows["BF"]["construction_ns_per_key"] <= rows["HABF"]["construction_ns_per_key"]
        for learned in ("LBF", "SLBF", "Ada-BF"):
            assert (
                rows[learned]["construction_ns_per_key"]
                > rows["BF"]["construction_ns_per_key"]
            )

    # f-HABF's fast construction stays within a small factor of HABF (in the
    # paper it is ~7x cheaper; in pure Python the gap is smaller).  Since the
    # bulk-build engine, a quick-config build finishes in tens of
    # milliseconds, so the ratio is re-measured best-of-three rather than
    # read from the figure's single-shot timings, where one scheduler stall
    # can flip it.
    from repro.experiments.registry import build_filter
    from repro.metrics.timing import time_construction_best_of

    dataset = quick_config.shalla_dataset()
    total_bits = 10 * dataset.num_positives

    def best_seconds(algorithm):
        _, timing = time_construction_best_of(
            lambda: build_filter(
                algorithm, dataset, total_bits, costs=dataset.costs, seed=quick_config.seed
            ),
            num_keys=dataset.num_positives,
        )
        return timing.total_seconds

    assert best_seconds("f-HABF") <= 1.2 * best_seconds("HABF")
