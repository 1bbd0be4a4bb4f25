"""Integration tests: every figure runner executes and reproduces the paper's shape.

Each test uses a deliberately tiny configuration so the whole module stays
fast; the full-scale runs live in ``benchmarks/``.
"""

from __future__ import annotations

import pytest


from repro.experiments import (
    fig08_bounds,
    fig09_parameters,
    fig10_uniform,
    fig11_skewed,
    fig12_time,
    fig13_skewness,
    fig14_hash_impls,
    fig15_memory,
)
from repro.experiments.config import ExperimentConfig

TINY = ExperimentConfig(
    shalla_positives=700,
    shalla_negatives=700,
    ycsb_positives=700,
    ycsb_negatives=650,
    space_points=2,
    cost_shuffles=1,
    query_sample=200,
)


@pytest.fixture(scope="module")
def fig10_result():
    return fig10_uniform.run(TINY)


@pytest.fixture(scope="module")
def fig11_result():
    return fig11_skewed.run(TINY)


class TestFig08:
    @pytest.fixture(scope="class")
    def result(self):
        return fig08_bounds.run(TINY)

    def test_covers_both_panels(self, result):
        panels = {row["panel"] for row in result.rows}
        assert panels == {"a (vary k)", "b (vary b)"}
        assert len(result.rows) == len(fig08_bounds.K_SWEEP) + len(fig08_bounds.B_SWEEP)

    def test_bound_holds_everywhere(self, result):
        violations = [row for row in result.rows if not row["bound_holds"]]
        assert not violations, f"Eq. 19 bound violated at {violations}"


class TestFig09:
    @pytest.fixture(scope="class")
    def result(self):
        return fig09_parameters.run(TINY)

    def test_all_three_sweeps_present(self, result):
        panels = {row["panel"] for row in result.rows}
        assert panels == {"a (vary delta)", "a (vary k)", "b (vary cell size)"}

    def test_recommended_delta_beats_extremes(self, result):
        deltas = {row["delta"]: row["weighted_fpr"] for row in result.filter_rows(panel="a (vary delta)")}
        assert deltas[0.25] <= deltas[0.9]


class TestFig10:
    def test_row_count(self, fig10_result):
        # 4 panels x space_points x algorithms (4 non-learned, 5 learned).
        assert len(fig10_result.rows) == 2 * 2 * 4 + 2 * 2 * 5

    def test_habf_beats_bf_on_every_point(self, fig10_result):
        for panel in ("a (shalla, non-learned)", "c (ycsb, non-learned)"):
            habf = fig10_result.series("weighted_fpr", panel=panel, algorithm="HABF")
            bf = fig10_result.series("weighted_fpr", panel=panel, algorithm="BF")
            assert all(h <= b for h, b in zip(habf, bf))

    def test_no_false_negatives_anywhere(self, fig10_result):
        assert all(row["fnr"] == 0.0 for row in fig10_result.rows)


class TestFig11:
    def test_includes_wbf_in_non_learned_panels(self, fig11_result):
        algorithms = {
            row["algorithm"] for row in fig11_result.filter_rows(panel="a (shalla, non-learned)")
        }
        assert "WBF" in algorithms

    def test_habf_wins_under_skew(self, fig11_result):
        """HABF must dominate the Bloom-based baselines at every point; the
        comparison against Xor allows a tiny absolute tolerance because at the
        tiny test scale a single cheap false positive moves the weighted FPR."""
        for panel in ("a (shalla, non-learned)", "c (ycsb, non-learned)"):
            rows = fig11_result.filter_rows(panel=panel)
            spaces = sorted({row["space_mb"] for row in rows})
            for space in spaces:
                at_space = {row["algorithm"]: row for row in rows if row["space_mb"] == space}
                habf = at_space["HABF"]["weighted_fpr"]
                assert habf <= at_space["BF"]["weighted_fpr"] + 1e-9
                assert habf <= at_space["WBF"]["weighted_fpr"] + 1e-9
                assert habf <= at_space["Xor"]["weighted_fpr"] + 0.01


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_time.run(TINY)

    def test_every_algorithm_timed_on_both_datasets(self, result):
        for dataset in ("shalla", "ycsb"):
            timed = {row["algorithm"] for row in result.filter_rows(dataset=dataset)}
            assert timed == set(fig12_time.TIMED_ALGORITHMS)

    def test_learned_filters_are_slowest_to_query(self, result):
        for dataset in ("shalla", "ycsb"):
            rows = {row["algorithm"]: row for row in result.filter_rows(dataset=dataset)}
            assert rows["LBF"]["query_ns_per_key"] > rows["BF"]["query_ns_per_key"]
            assert rows["HABF"]["construction_ns_per_key"] > rows["BF"]["construction_ns_per_key"]

    def test_fast_habf_builds_faster_than_habf(self):
        """f-HABF's construction shortcut (double hashing, no Γ) should not be
        slower than full HABF; allow 20% head-room for wall-clock noise.

        Engine-backed builds finish in single-digit milliseconds at this
        scale, so one scheduler stall can dominate a one-shot measurement;
        compare best-of-three builds instead of the shared fixture's single
        run.
        """
        from repro.experiments.registry import build_filter
        from repro.metrics.timing import time_construction_best_of

        dataset = TINY.shalla_dataset()
        total_bits = 10 * dataset.num_positives

        def best_seconds(algorithm):
            _, timing = time_construction_best_of(
                lambda: build_filter(
                    algorithm, dataset, total_bits, costs=dataset.costs, seed=TINY.seed
                ),
                num_keys=dataset.num_positives,
            )
            return timing.total_seconds

        assert best_seconds("f-HABF") <= 1.2 * best_seconds("HABF")


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_skewness.run(TINY)

    def test_sweep_covers_all_skewness_values(self, result):
        skews = sorted({row["skewness"] for row in result.rows})
        assert skews == sorted(fig13_skewness.SKEWNESS_SWEEP)

    def test_habf_at_least_matches_bf(self, result):
        for skew in fig13_skewness.SKEWNESS_SWEEP:
            rows = {row["algorithm"]: row for row in result.filter_rows(skewness=skew)}
            assert rows["HABF"]["weighted_fpr"] <= rows["BF"]["weighted_fpr"] + 1e-9


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14_hash_impls.run(TINY)

    def test_bf_variants_present(self, result):
        algorithms = {row["algorithm"] for row in result.rows}
        assert algorithms == set(fig14_hash_impls.ALGORITHMS)

    def test_habf_beats_every_bf_variant_under_skew(self, result):
        skewed = result.filter_rows(panel="b (skewed)")
        spaces = sorted({row["space_mb"] for row in skewed})
        for space in spaces:
            at_space = {row["algorithm"]: row for row in skewed if row["space_mb"] == space}
            for variant in ("BF", "BF(City64)", "BF(XXH128)"):
                assert at_space["HABF"]["weighted_fpr"] <= at_space[variant]["weighted_fpr"] + 1e-9


class TestFig15:
    @pytest.fixture(scope="class")
    def result(self):
        return fig15_memory.run(TINY)

    def test_memory_reported_for_every_algorithm(self, result):
        for dataset in ("shalla", "ycsb"):
            measured = {row["algorithm"] for row in result.filter_rows(dataset=dataset)}
            assert measured == set(fig15_memory.MEASURED_ALGORITHMS)
            assert all(row["peak_construction_mb"] >= 0 for row in result.rows)

    def test_habf_needs_more_construction_memory_than_bf(self, result):
        for dataset in ("shalla", "ycsb"):
            rows = {row["algorithm"]: row for row in result.filter_rows(dataset=dataset)}
            assert rows["HABF"]["peak_construction_mb"] > rows["BF"]["peak_construction_mb"]
