"""Micro-benchmark: bulk construction (``add_many``) vs the scalar build loop.

The companion of ``test_batch_engine.py`` for the *build* side of the
engine: PR 2 vectorized every query, this measures the keys/sec of the
``add_many`` bulk-build path against the equivalent ``for key: add(key)``
loop at 10^5 keys and records the numbers in ``BENCH_batch_build.json`` at
the repo root so successive PRs can track the trend.

Two invariants are gated here:

* the engine's bulk build must be at least 3x faster than scalar
  construction (the measured margin is far larger — see the JSON);
* a batch-built filter must serialize to codec frames byte-identical to a
  scalar-built one, i.e. the speedup cannot come from changing a single
  stored bit (the full filter matrix is pinned by
  ``tests/core/test_batch_build_equivalence.py``; this re-checks the two
  filters actually built at benchmark scale).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.metrics.benchmeta import bench_environment
from repro.baselines.weighted_bloom import WeightedBloomFilter
from repro.baselines.xor_filter import XorFilter
from repro.core.bloom import BloomFilter, optimal_num_hashes
from repro.errors import CapacityError
from repro.metrics.timing import time_construction_best_of
from repro.service import codec
from repro.workloads.shalla import generate_shalla_like

NUM_BUILD_KEYS = 100_000
#: Scalar construction is timed on a sample of this size and scaled; the
#: batch path builds the full 10^5-key filter it is being scored on.
SCALAR_SAMPLE = 20_000
BITS_PER_KEY = 10.0
#: The bulk build must beat the scalar loop by at least this factor (the
#: measured margins are ~5-15x; 3x keeps the gate robust on noisy CI).
REQUIRED_SPEEDUP = 3.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch_build.json"


class _PerKeyXorFilter(XorFilter):
    """An Xor filter whose build hashes with the per-key ``_slots_for`` /
    ``_fingerprint`` pair instead of the batch ``_batch_state`` pass."""

    def _build(self, keys):
        for attempt in range(64):
            seed = self._seed + attempt
            key_slots = [self._slots_for(key, seed) for key in keys]
            fingerprints = [self._fingerprint(key, seed) for key in keys]
            order = self._peel(key_slots)
            if order is not None:
                self._assign(order, key_slots, fingerprints)
                self._seed = seed
                return
        raise CapacityError(f"Xor filter peeling failed for {len(keys)} keys after 64 seeds")


@pytest.fixture(scope="module")
def build_keys():
    dataset = generate_shalla_like(
        num_positives=NUM_BUILD_KEYS, num_negatives=1_000, seed=78
    )
    return dataset.positives


def _measure(batch_build, scalar_build, scalar_sample=SCALAR_SAMPLE):
    """Best-of-three keys/sec for the bulk build vs the (sampled) scalar loop."""
    built, batch_timing = time_construction_best_of(batch_build, NUM_BUILD_KEYS)
    _, scalar_timing = time_construction_best_of(scalar_build, scalar_sample)
    batch_kps = NUM_BUILD_KEYS / batch_timing.total_seconds
    scalar_kps = scalar_sample / scalar_timing.total_seconds
    return built, {
        "scalar_keys_per_sec": round(scalar_kps),
        "batch_keys_per_sec": round(batch_kps),
        "speedup": round(batch_kps / scalar_kps, 2),
        "num_build_keys": NUM_BUILD_KEYS,
    }


@pytest.fixture(scope="module")
def build_report(build_keys):
    num_bits = int(BITS_PER_KEY * NUM_BUILD_KEYS)
    num_hashes = optimal_num_hashes(BITS_PER_KEY)

    def bloom_batch():
        return BloomFilter.from_keys(
            build_keys, num_bits=num_bits, num_hashes=num_hashes
        )

    def bloom_scalar(keys=None):
        bloom = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        for key in keys if keys is not None else build_keys[:SCALAR_SAMPLE]:
            bloom.add(key)
        return bloom

    def wbf_batch():
        wbf = WeightedBloomFilter(num_bits=num_bits, default_hashes=num_hashes)
        wbf.add_many(build_keys)
        return wbf

    def wbf_scalar():
        wbf = WeightedBloomFilter(num_bits=num_bits, default_hashes=num_hashes)
        for key in build_keys[:SCALAR_SAMPLE]:
            wbf.add(key)
        return wbf

    def xor_batch():
        return XorFilter(build_keys, fingerprint_bits=8, seed=2)

    def xor_scalar():
        # The Xor filter has no incremental `add`; its scalar build hashes
        # key by key, then runs the same peeling.
        return _PerKeyXorFilter(build_keys[:SCALAR_SAMPLE], fingerprint_bits=8, seed=2)

    bloom, bloom_entry = _measure(bloom_batch, bloom_scalar)
    _, wbf_entry = _measure(wbf_batch, wbf_scalar)
    _, xor_entry = _measure(xor_batch, xor_scalar)

    # Frame identity at benchmark scale: the batch-built Bloom filter must
    # serialize byte-for-byte like a scalar build of the same keys.
    scalar_bloom = bloom_scalar(keys=build_keys)
    assert codec.dumps(bloom) == codec.dumps(scalar_bloom), (
        "batch-built Bloom filter serialized differently from the scalar build"
    )

    report = {
        "benchmark": "batch_build",
        **bench_environment(),
        "filters": {
            "bloom": bloom_entry,
            "wbf": wbf_entry,
            "xor": xor_entry,
        },
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


@pytest.mark.parametrize("name", ["bloom", "wbf", "xor"])
def test_batch_build_speedup(build_report, name):
    entry = build_report["filters"][name]
    print(
        f"\n{name}: scalar={entry['scalar_keys_per_sec']:,} keys/s  "
        f"batch={entry['batch_keys_per_sec']:,} keys/s  speedup={entry['speedup']}x"
    )
    assert entry["speedup"] >= REQUIRED_SPEEDUP, (
        f"{name} bulk build only {entry['speedup']}x over scalar "
        f"(required {REQUIRED_SPEEDUP}x)"
    )


def test_report_written(build_report):
    recorded = json.loads(RESULT_PATH.read_text())
    assert recorded["filters"].keys() == {"bloom", "wbf", "xor"}
    for entry in recorded["filters"].values():
        assert entry["num_build_keys"] == NUM_BUILD_KEYS
