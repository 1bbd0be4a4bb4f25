"""Benchmark: regenerate Fig. 12(c)/(d) — query latency per key."""

from __future__ import annotations

import random

from repro.experiments.config import QUICK_CONFIG
from repro.experiments.registry import build_filter
from repro.metrics.timing import time_queries

#: Algorithms whose query paths the paper compares in Fig. 12(c)/(d).
QUERY_ALGORITHMS = ("HABF", "f-HABF", "BF", "Xor", "LBF")


def _prepare(dataset, bits_per_key=10.0, seed=7):
    total_bits = int(bits_per_key * dataset.num_positives)
    filters = {
        name: build_filter(name, dataset, total_bits, costs=dataset.costs, seed=seed)
        for name in QUERY_ALGORITHMS
    }
    rng = random.Random(seed)
    sample = rng.sample(dataset.negatives, 300) + rng.sample(dataset.positives, 300)
    return filters, sample


def test_fig12_query_latency(benchmark):
    dataset = QUICK_CONFIG.shalla_dataset()
    filters, sample = _prepare(dataset)

    def measure():
        return {
            name: time_queries(filt, sample).ns_per_key for name, filt in filters.items()
        }

    latencies = benchmark.pedantic(measure, iterations=1, rounds=1)

    # The paper's ordering: learned filters are slower per query than the
    # hash-based filters.  (In the paper's C++ implementation the gap is
    # >500x; in pure Python the Bloom probes themselves cost tens of
    # microseconds, which compresses the ratio — see EXPERIMENTS.md.)
    assert latencies["LBF"] > latencies["BF"]
    # HABF's two-round query costs more than a single-round BF query but stays
    # within a small constant factor (the paper reports ~5x).
    assert latencies["HABF"] <= 20 * latencies["BF"]
    assert latencies["f-HABF"] <= latencies["HABF"] * 1.5
