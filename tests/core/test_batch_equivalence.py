"""Scalar-vs-batch equivalence for every filter type in the library.

The contract of the batch-membership engine is exactly one sentence:
``filter.contains_many(keys) == [filter.contains(k) for k in keys]`` for
every filter.  These tests pin that contract for the core filters, every
baseline, the degenerate shard/table filters and the sharded store, plus the
batch bit-array primitives the engine writes and probes through.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.learned.adabf import AdaptiveLearnedBloomFilter
from repro.baselines.learned.lbf import LearnedBloomFilter
from repro.baselines.learned.slbf import SandwichedLearnedBloomFilter
from repro.baselines.weighted_bloom import WeightedBloomFilter
from repro.baselines.xor_filter import XorFilter
from repro.core.bitarray import BitArray
from repro.core.bloom import BloomFilter
from repro.core.habf import HABF, FastHABF
from repro.core.params import HABFParams
from repro.hashing import vectorized
from repro.hashing.double_hashing import DoubleHashFamily
from repro.kvstore.filter_policy import AlwaysContainsFilter
from repro.service import codec
from repro.service.shards import EmptyShardFilter, ShardedFilterStore


def _params(dataset) -> HABFParams:
    return HABFParams.from_bits_per_key(10.0, dataset.num_positives, seed=5)


FILTER_BUILDERS = {
    "bloom": lambda ds, costs: _built_bloom(ds, family=None),
    "bloom-double": lambda ds, costs: _built_bloom(
        ds, family=DoubleHashFamily(size=7, primitive="xxhash", seed=2)
    ),
    "habf": lambda ds, costs: HABF.build(
        ds.positives, ds.negatives, costs=costs, params=_params(ds)
    ),
    "f-habf": lambda ds, costs: FastHABF.build(
        ds.positives, ds.negatives, costs=costs, params=_params(ds)
    ),
    "habf-no-expressor": lambda ds, costs: HABF.build(
        ds.positives,
        negatives=(),
        params=HABFParams(total_bits=10 * ds.num_positives, k=3, delta=0.0),
    ),
    "xor": lambda ds, costs: XorFilter.from_bits_per_key(ds.positives, 10.0),
    "wbf": lambda ds, costs: WeightedBloomFilter.build(
        ds.positives, ds.negatives, costs=costs, bits_per_key=10.0
    ),
    "lbf": lambda ds, costs: LearnedBloomFilter.build(
        ds.positives, ds.negatives, bits_per_key=12.0
    ),
    "slbf": lambda ds, costs: SandwichedLearnedBloomFilter.build(
        ds.positives, ds.negatives, bits_per_key=12.0
    ),
    "ada-bf": lambda ds, costs: AdaptiveLearnedBloomFilter.build(
        ds.positives, ds.negatives, bits_per_key=12.0
    ),
    "empty-shard": lambda ds, costs: EmptyShardFilter(),
    "always-contains": lambda ds, costs: AlwaysContainsFilter(),
}


def _built_bloom(dataset, family):
    bloom = BloomFilter(num_bits=10 * dataset.num_positives, num_hashes=7, family=family)
    bloom.add_all(dataset.positives)
    return bloom


@pytest.fixture(scope="module")
def probe_keys(small_shalla):
    keys = small_shalla.negatives[:400] + small_shalla.positives[:400]
    random.Random(9).shuffle(keys)
    return keys


@pytest.fixture(scope="module")
def built_filters(small_shalla, skewed_costs):
    return {
        name: build(small_shalla, skewed_costs)
        for name, build in FILTER_BUILDERS.items()
    }


@pytest.mark.parametrize("name", list(FILTER_BUILDERS))
def test_contains_many_matches_scalar(name, built_filters, probe_keys):
    filt = built_filters[name]
    answers = filt.contains_many(probe_keys)
    assert answers == [filt.contains(key) for key in probe_keys]
    assert all(isinstance(answer, bool) for answer in answers)


def test_contains_many_empty_batch(built_filters):
    for name, filt in built_filters.items():
        assert filt.contains_many([]) == [], name


def test_zero_false_negatives_through_engine(built_filters, small_shalla):
    for name in ("bloom", "habf", "f-habf", "xor", "wbf", "lbf", "slbf"):
        answers = built_filters[name].contains_many(small_shalla.positives)
        assert all(answers), f"{name} dropped a positive key on the batch path"


class _NoExpressorHABF:
    """A HABF policy with ∆ = 0: no HashExpressor, so shards answer from round 1 alone."""

    name = "habf"

    def create_filter(self, keys, negatives=(), costs=None):
        params = HABFParams(total_bits=10 * len(keys), k=3, delta=0.0)
        return HABF.build(keys, negatives, costs=costs, params=params)


def _with_always_contains_shard(store):
    """Swap one shard for the empty-policy filter a kvstore policy returns."""
    return store.replace_shards({2: (AlwaysContainsFilter(), 0, 9, None, "habf")})


def _zero_copy_with_private_shard(ds, costs):
    """A follower-style store: zero-copy shards plus one privately held shard."""
    built = ShardedFilterStore.build(
        ds.positives, ds.negatives, costs=costs, num_shards=8, backend="habf"
    )
    shared = codec.loads(memoryview(codec.dumps(built)), zero_copy=True)
    count = built.shard_key_counts[3]
    return shared.replace_shards({3: (built.filters[3], count, 2, None, "habf")})


STORE_BUILDERS = {
    "f-habf-4": lambda ds, costs: ShardedFilterStore.build(
        ds.positives, ds.negatives, num_shards=4, backend="f-habf"
    ),
    "habf-zipf-16": lambda ds, costs: ShardedFilterStore.build(
        ds.positives, ds.negatives, costs=costs, num_shards=16, backend="habf"
    ),
    "f-habf-zipf-16": lambda ds, costs: ShardedFilterStore.build(
        ds.positives, ds.negatives, costs=costs, num_shards=16, backend="f-habf"
    ),
    "habf-no-expressor": lambda ds, costs: ShardedFilterStore.build(
        ds.positives, ds.negatives, num_shards=8, backend=_NoExpressorHABF()
    ),
    "habf-mixed-expressors": lambda ds, costs: ShardedFilterStore.build(
        ds.positives,
        ds.negatives,
        costs=costs,
        num_shards=8,
        backend="habf",
        shard_backends={1: _NoExpressorHABF(), 5: _NoExpressorHABF()},
    ),
    "habf-no-negatives": lambda ds, costs: ShardedFilterStore.build(
        ds.positives, num_shards=8, backend="habf"
    ),
    "habf-empty-shards": lambda ds, costs: _with_always_contains_shard(
        ShardedFilterStore.build(ds.positives[:12], ds.negatives, num_shards=16, backend="habf")
    ),
    "mixed-adaptive": lambda ds, costs: ShardedFilterStore.build(
        ds.positives,
        ds.negatives,
        costs=costs,
        num_shards=8,
        backend="habf",
        shard_backends={1: "bloom-dh", 2: "xor", 3: "f-habf", 6: "f-habf"},
    ),
    "habf-zero-copy": lambda ds, costs: codec.loads(
        memoryview(codec.dumps(
            ShardedFilterStore.build(
                ds.positives, ds.negatives, costs=costs, num_shards=16, backend="habf"
            )
        )),
        zero_copy=True,
    ),
    "habf-zero-copy-mixed": _zero_copy_with_private_shard,
    "f-habf-zero-copy": lambda ds, costs: codec.loads(
        memoryview(codec.dumps(
            ShardedFilterStore.build(ds.positives, ds.negatives, num_shards=4, backend="f-habf")
        )),
        zero_copy=True,
    ),
}


#: Stores built from only a prefix of the positives (the rest are absent).
_STORE_KEYS = {"habf-empty-shards": 12}


def _routed_scalar(store, keys):
    """The reference oracle: each key's own shard filter, scalar ``contains``."""
    return [bool(store.filters[store.shard_of(key)].contains(key)) for key in keys]


@pytest.fixture(scope="module")
def built_stores(small_shalla, skewed_costs):
    return {
        name: build(small_shalla, skewed_costs) for name, build in STORE_BUILDERS.items()
    }


@pytest.fixture(scope="module")
def window_keys(small_shalla):
    keys = small_shalla.negatives + small_shalla.positives
    random.Random(21).shuffle(keys)
    return keys


@pytest.mark.parametrize("window", [1, 32, 33, 64, 1024])
@pytest.mark.parametrize("name", list(STORE_BUILDERS))
def test_sharded_store_query_many_matches_scalar(name, window, built_stores, window_keys, small_shalla):
    store = built_stores[name]
    keys = window_keys[: max(4 * window, 256)]
    answers = []
    for start in range(0, len(keys), window):
        answers.extend(store.query_many(vectorized.KeyBatch(keys[start : start + window])))
    assert answers == _routed_scalar(store, keys)
    positives = set(small_shalla.positives[: _STORE_KEYS.get(name)])
    assert all(answer for key, answer in zip(keys, answers) if key in positives)


def test_fused_groups_cover_the_habf_shards(built_stores):
    assert len(built_stores["habf-zipf-16"]._probe_groups()) == 1
    assert len(built_stores["habf-mixed-expressors"]._probe_groups()) == 1
    # Shards aliasing the shared frame and a privately held one never share
    # an arena: the private shard's bits are not inside the mapping.
    assert len(built_stores["habf-zero-copy-mixed"]._probe_groups()) == 2
    # Each f-HABF owns its DoubleHashFamily; equal content still fuses.
    (plan, members, _slot), = built_stores["f-habf-zipf-16"]._probe_groups()
    assert members.tolist() == list(range(16))
    mixed = built_stores["mixed-adaptive"]._probe_groups()
    assert sorted(members.tolist() for _plan, members, _slot in mixed) == [
        [0, 4, 5, 7], [3, 6]
    ]
    empty = built_stores["habf-empty-shards"]
    fused = {shard for _plan, members, _slot in empty._probe_groups() for shard in members.tolist()}
    assert fused == {
        shard for shard, filt in enumerate(empty.filters) if isinstance(filt, HABF)
    }


def test_zero_copy_store_plan_indexes_the_frame_instead_of_copying(small_shalla):
    frame = codec.dumps(
        ShardedFilterStore.build(small_shalla.positives, small_shalla.negatives, num_shards=8)
    )
    store = codec.loads(memoryview(frame), zero_copy=True)
    (plan, _members, _slot), = store._probe_groups()
    assert not plan._bits.flags.owndata
    assert np.shares_memory(plan._bits, np.frombuffer(frame, dtype=np.uint8))


@pytest.mark.parametrize("backend", ["habf", "f-habf"])
def test_sharded_store_counters_match_the_per_shard_path(
    backend, small_shalla, skewed_costs, window_keys
):
    fused = ShardedFilterStore.build(
        small_shalla.positives, small_shalla.negatives, costs=skewed_costs,
        num_shards=16, backend=backend,
    )
    scalar = ShardedFilterStore.build(
        small_shalla.positives, small_shalla.negatives, costs=skewed_costs,
        num_shards=16, backend=backend,
    )
    keys = window_keys[:640]
    for start in range(0, len(keys), 64):
        fused.query_many(keys[start : start + 64])
    assert [scalar.query(key) for key in keys] == _routed_scalar(fused, keys)
    fused_stats = {s.shard: (s.queries, s.positives) for s in fused.shard_stats()}
    scalar_stats = {s.shard: (s.queries, s.positives) for s in scalar.shard_stats()}
    assert fused_stats == scalar_stats


def test_successor_stores_never_answer_from_the_previous_plan(small_shalla, skewed_costs):
    base = small_shalla.positives[:800]
    added = small_shalla.positives[800:]
    negatives = small_shalla.negatives
    store = ShardedFilterStore.build(
        base, negatives, costs=skewed_costs, num_shards=16, backend="habf"
    )
    probe = base + added + negatives[:400]
    assert store.query_many(probe) == _routed_scalar(store, probe)  # plan built
    for step in range(0, len(added), 100):
        keys = base + added[: step + 100]
        store, rebuilt, _skipped = ShardedFilterStore.rebuild_from(
            store, keys, negatives, costs=skewed_costs, backend="habf"
        )
        assert rebuilt
        answers = store.query_many(probe)
        assert answers == _routed_scalar(store, probe)
        assert all(answers[: len(keys)]), "a positive answered 0 after the rebuild"
    # replace_shards: the swapped-in filter answers, not the old plan's part.
    shard = store.shard_of(negatives[0])
    owned = [key for key in probe if store.shard_of(key) == shard]
    replacement = HABF.build(owned, params=_params(small_shalla))
    swapped = store.replace_shards({shard: (replacement, len(owned), 99, None, "habf")})
    assert swapped.query_many(probe) == _routed_scalar(swapped, probe)
    assert all(swapped.query_many(owned))


def test_disk_backed_service_matches_scalar_without_decoding_for_the_plan(
    tmp_path, small_shalla, skewed_costs, window_keys
):
    from repro.service import MembershipService

    service = MembershipService(backend="habf", num_shards=8, store_path=tmp_path / "store")
    service.load(small_shalla.positives, small_shalla.negatives, costs=skewed_costs)
    store = service.snapshot.store
    cold = service.disk_store.cache_stats()
    assert store._probe_groups() == []  # lazy proxies stay per-shard and cold
    assert service.disk_store.cache_stats() == cold
    keys = window_keys[:512]
    answers = []
    for start in range(0, len(keys), 64):
        answers.extend(service.query_many(keys[start : start + 64]))
    assert answers == _routed_scalar(store, keys)


def test_bitarray_set_many_matches_scalar_and_serialization():
    rng = random.Random(5)
    indices = [rng.randrange(997) for _ in range(300)] + [-1, -997, 0, 996]
    scalar = BitArray(997)
    for index in indices:
        scalar.set(index)
    batched = BitArray(997)
    batched.set_many(indices)
    assert batched == scalar
    assert batched.to_bytes() == scalar.to_bytes()
    tested = batched.test_many(list(range(997)))
    assert tested.tolist() == [scalar.test(i) for i in range(997)]


def test_bitarray_set_many_refuses_a_read_only_view():
    frame = bytes(4)
    view = BitArray.view(32, memoryview(frame))
    with pytest.raises(TypeError):
        view.set_many([3])
    assert frame == bytes(4)
    assert view.count() == 0
    view.set_many([])  # an empty batch writes nothing, so it is no error


def test_add_many_on_a_zero_copy_filter_raises(built_filters):
    frame = codec.dumps(built_filters["bloom"])
    revived = codec.loads(frame, zero_copy=True)
    with pytest.raises(TypeError):
        revived.add_many(["never-inserted-0", "never-inserted-1"])
    assert codec.dumps(revived) == frame


def test_bitarray_batch_bounds_checking():
    array = BitArray(64)
    with pytest.raises(IndexError):
        array.set_many([0, 64])
    with pytest.raises(IndexError):
        array.test_many([-65])
    # The failed call must not have set anything.
    assert array.count() == 0


def test_concurrent_windows_share_one_store_with_exact_counters(
    small_shalla, skewed_costs, window_keys
):
    """Threads racing a fresh store's first queries (and the lazy plan build)
    must still get scalar verdicts and lose no counter update."""
    import sys
    import threading

    store = ShardedFilterStore.build(
        small_shalla.positives, small_shalla.negatives, costs=skewed_costs,
        num_shards=16, backend="habf",
    )
    keys = window_keys[:512]
    expected = _routed_scalar(store, keys)
    windows = [keys[start : start + 32] for start in range(0, len(keys), 32)]
    failures = []

    def worker():
        for start, window in zip(range(0, len(keys), 32), windows):
            if store.query_many(window) != expected[start : start + 32]:
                failures.append(start)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    stats = store.shard_stats()
    assert sum(s.queries for s in stats) == 6 * len(keys)
    assert sum(s.positives for s in stats) == 6 * sum(expected)
