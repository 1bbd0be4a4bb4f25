"""Fig. 12 — construction time and query latency per key.

The paper fixes the filter space (1.5 MB for Shalla, 15 MB for YCSB) and
reports nanoseconds per key for construction and for queries, for every
algorithm.  Pure-Python absolute numbers are far larger than the paper's C++
measurements; the reproduction target is the *ordering and ratios* — learned
filters orders of magnitude slower than hash-based ones, HABF construction a
constant factor above BF, f-HABF close to BF (see EXPERIMENTS.md).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.experiments.config import (
    ExperimentConfig,
    PAPER_SHALLA_POSITIVES,
    PAPER_YCSB_POSITIVES,
    mb_to_bits_per_key,
)
from repro.experiments.registry import build_filter
from repro.experiments.report import ExperimentResult, Row
from repro.metrics.timing import time_construction, time_queries, time_queries_batch
from repro.workloads.dataset import MembershipDataset

#: Algorithms timed by the paper's Fig. 12 (GPU variants excluded: no GPU here).
TIMED_ALGORITHMS: Sequence[str] = (
    "HABF",
    "f-HABF",
    "BF",
    "Xor",
    "WBF",
    "LBF",
    "Ada-BF",
    "SLBF",
)
SHALLA_SPACE_MB = 1.5
YCSB_SPACE_MB = 15.0


def _time_dataset(
    dataset: MembershipDataset,
    space_mb: float,
    paper_positives: int,
    algorithms: Sequence[str],
    config: ExperimentConfig,
    batch_mode: bool = False,
) -> List[Row]:
    bits_per_key = mb_to_bits_per_key(space_mb, paper_positives)
    total_bits = int(round(bits_per_key * dataset.num_positives))
    rng = random.Random(config.seed)
    sample_size = min(config.query_sample, dataset.num_negatives, dataset.num_positives)
    query_keys = rng.sample(dataset.negatives, sample_size // 2) + rng.sample(
        dataset.positives, sample_size - sample_size // 2
    )
    rows: List[Row] = []
    for algorithm in algorithms:
        # Construction runs through add_many / the vectorized TPJO and
        # peeling passes, so this measurement is the engine build time.
        built, construction = time_construction(
            lambda name=algorithm: build_filter(
                name, dataset, total_bits, costs=dataset.costs, seed=config.seed
            ),
            num_keys=dataset.num_positives,
        )
        query = time_queries(built, query_keys)
        row: Row = {
            "dataset": dataset.name,
            "space_mb": space_mb,
            "algorithm": algorithm,
            "construction_ns_per_key": construction.ns_per_key,
            "query_ns_per_key": query.ns_per_key,
        }
        if batch_mode:
            batch_query = time_queries_batch(built, query_keys)
            row["query_batch_ns_per_key"] = batch_query.ns_per_key
            row["batch_speedup"] = (
                query.ns_per_key / batch_query.ns_per_key
                if batch_query.ns_per_key > 0
                else 0.0
            )
        rows.append(row)
    return rows


def run(
    config: Optional[ExperimentConfig] = None, batch_mode: bool = False
) -> ExperimentResult:
    """Regenerate all four panels of Fig. 12.

    With ``batch_mode`` every algorithm is additionally timed through the
    batch engine (``contains_many`` over the same query keys), adding
    ``query_batch_ns_per_key`` and ``batch_speedup`` columns — the measured
    form of the engine speedups recorded in ``BENCH_batch_engine.json``.
    The construction-side ratios live in ``BENCH_batch_build.json``.
    """
    config = config or ExperimentConfig()
    rows: List[Row] = []
    rows.extend(
        _time_dataset(
            config.shalla_dataset(),
            SHALLA_SPACE_MB,
            PAPER_SHALLA_POSITIVES,
            TIMED_ALGORITHMS,
            config,
            batch_mode=batch_mode,
        )
    )
    rows.extend(
        _time_dataset(
            config.ycsb_dataset(),
            YCSB_SPACE_MB,
            PAPER_YCSB_POSITIVES,
            TIMED_ALGORITHMS,
            config,
            batch_mode=batch_mode,
        )
    )
    return ExperimentResult(
        experiment_id="fig12",
        title="Fig. 12: construction time and query latency per key",
        rows=rows,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run(batch_mode=True)
    print(result.title)
    print(result.to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
