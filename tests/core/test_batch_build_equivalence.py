"""Scalar-vs-batch equivalence for *construction*, pinned at the byte level.

The bulk-build contract mirrors the query-side one: building a filter
through the engine (``add_many`` / the vectorized TPJO and peeling passes)
must leave it in exactly the state the scalar build loop would — the same
serialized codec frame, byte for byte.  Whole builds are compared where a
scalar twin of the build exists (``add`` loops, the per-key Xor peel); the
TPJO stages are pinned one by one against their per-key hashes.
"""

from __future__ import annotations

import pytest

from repro.baselines.weighted_bloom import WeightedBloomFilter
from repro.baselines.xor_filter import XorFilter
from repro.core.batch import positions_for_selection
from repro.core.bloom import BloomFilter
from repro.core.habf import HABF
from repro.core.hash_expressor import HashExpressor
from repro.core.params import HABFParams
from repro.core.tpjo import TPJOOptimizer
from repro.hashing import vectorized
from repro.hashing.base import normalize_key
from repro.hashing.double_hashing import DoubleHashFamily
from repro.service import codec


def _params(dataset) -> HABFParams:
    return HABFParams.from_bits_per_key(10.0, dataset.num_positives, seed=5)


def _bloom_by_add(ds, family=None):
    bloom = BloomFilter(num_bits=10 * ds.num_positives, num_hashes=7, family=family)
    for key in ds.positives:
        bloom.add(key)
    return bloom


def _degenerate_params(ds) -> HABFParams:
    return HABFParams(total_bits=10 * ds.num_positives, k=3, delta=0.0)


def _degenerate_habf_by_add(ds):
    """The ∆ = 0 build (a plain Bloom filter inside a HABF), one ``add`` per key."""
    habf = HABF(params=_degenerate_params(ds))
    for key in ds.positives:
        habf.bloom.add(key)
    habf._built = True
    return habf


def _xor_by_scalar_peel(ds):
    """The Xor build on the per-key ``_slots_for`` / ``_fingerprint`` hashes.

    The engine build fixes the slot geometry; the seed search, peel and
    assignment are then redone from the scalar hashes.
    """
    xor = XorFilter.from_bits_per_key(ds.positives, 10.0)
    keys = list(dict.fromkeys(normalize_key(key) for key in ds.positives))
    for seed in range(1, 65):
        key_slots = [xor._slots_for(key, seed) for key in keys]
        order = xor._peel(key_slots)
        if order is not None:
            break
    xor._assign(order, key_slots, [xor._fingerprint(key, seed) for key in keys])
    xor._seed = seed
    xor._slots_array = None
    return xor


#: ``name -> (engine build, scalar build)``; the two codec frames must match.
CODEC_BUILDERS = {
    "bloom": (
        lambda ds: BloomFilter.from_keys(
            ds.positives, num_bits=10 * ds.num_positives, num_hashes=7
        ),
        _bloom_by_add,
    ),
    "bloom-double": (
        lambda ds: BloomFilter.from_keys(
            ds.positives,
            num_bits=10 * ds.num_positives,
            num_hashes=7,
            family=DoubleHashFamily(size=7, primitive="xxhash", seed=2),
        ),
        lambda ds: _bloom_by_add(ds, DoubleHashFamily(size=7, primitive="xxhash", seed=2)),
    ),
    "habf-degenerate": (
        lambda ds: HABF.build(ds.positives, negatives=(), params=_degenerate_params(ds)),
        _degenerate_habf_by_add,
    ),
    "xor": (
        lambda ds: XorFilter.from_bits_per_key(ds.positives, 10.0),
        _xor_by_scalar_peel,
    ),
}


@pytest.mark.parametrize("name", list(CODEC_BUILDERS))
def test_batch_build_codec_frames_match_scalar(name, small_shalla):
    engine_build, scalar_build = CODEC_BUILDERS[name]
    assert codec.dumps(engine_build(small_shalla)) == codec.dumps(
        scalar_build(small_shalla)
    ), name


def _wbf_by_add(ds, costs):
    """``WeightedBloomFilter.build`` with the bulk insert replaced by ``add``."""
    engine = WeightedBloomFilter.build(
        ds.positives, ds.negatives, costs=costs, bits_per_key=10.0
    )
    scalar = _empty_wbf_like(engine)
    for key in ds.positives:
        scalar.add(key)
    return engine, scalar


def _empty_wbf_like(wbf):
    """An empty WBF with ``wbf``'s geometry and cost cache."""
    empty = WeightedBloomFilter(
        num_bits=len(wbf._bits),
        default_hashes=wbf.default_hashes,
        max_hashes=wbf._max_hashes,
        cache_fraction=wbf._cache_fraction,
    )
    empty._hash_cache = dict(wbf._hash_cache)
    return empty


@pytest.mark.parametrize("name", ["wbf"])
def test_batch_build_bit_payloads_match_scalar(name, small_shalla, skewed_costs):
    engine, scalar = _wbf_by_add(small_shalla, skewed_costs)
    assert engine._num_items == scalar._num_items
    assert engine._bits.to_bytes() == scalar._bits.to_bytes()


def test_wbf_add_many_honours_elevated_counts_of_cached_keys(small_shalla, skewed_costs):
    """A positive that is also in the cost cache inserts with the larger count."""
    engine, _ = _wbf_by_add(small_shalla, skewed_costs)
    cached = list(engine._hash_cache)[:40]
    batched, scalar = _empty_wbf_like(engine), _empty_wbf_like(engine)
    keys = cached + small_shalla.positives[:200]
    batched.add_many(keys)
    for key in keys:
        scalar.add(key)
    assert batched._bits.to_bytes() == scalar._bits.to_bytes()
    assert all(batched.contains_many(keys))


@pytest.mark.parametrize(
    "family",
    [None, DoubleHashFamily(size=8, primitive="xxhash", seed=4)],
    ids=["table", "double"],
)
def test_tpjo_h0_positions_match_bit_positions(family, small_shalla):
    """TPJO's engine H0 pass equals the per-key ``bit_positions`` it replaced."""
    params = _params(small_shalla)
    bloom = BloomFilter(num_bits=params.bloom_bits, num_hashes=params.k, family=family)
    expressor = HashExpressor(
        num_cells=params.num_cells,
        cell_hash_bits=params.cell_hash_bits,
        family=bloom.family,
    )
    optimizer = TPJOOptimizer(bloom=bloom, expressor=expressor, params=params)
    negatives = small_shalla.negatives[:300]
    h0 = bloom.initial_selection
    expected = [tuple(bloom.bit_positions(key, h0)) for key in negatives]
    assert optimizer._negative_position_lists(negatives) == expected
    matrix = positions_for_selection(
        bloom.family, vectorized.KeyBatch(negatives), h0, bloom.num_bits
    )
    assert [tuple(column) for column in matrix.T.tolist()] == expected
    assert optimizer._negative_position_lists([]) == []


def test_tpjo_bulk_h0_insert_matches_add_with_selection(small_shalla):
    """The bulk H0 insertion sets exactly the bits of a scalar insert loop."""
    params = _params(small_shalla)
    bloom = BloomFilter(num_bits=params.bloom_bits, num_hashes=params.k)
    optimizer = TPJOOptimizer(
        bloom=bloom,
        expressor=HashExpressor(
            num_cells=params.num_cells,
            cell_hash_bits=params.cell_hash_bits,
            family=bloom.family,
        ),
        params=params,
    )
    optimizer._insert_positives(small_shalla.positives)
    scalar = BloomFilter(num_bits=params.bloom_bits, num_hashes=params.k)
    for key in small_shalla.positives:
        scalar.add_with_selection(key, scalar.initial_selection)
    assert bloom.bits.to_bytes() == scalar.bits.to_bytes()
    assert bloom.num_items == scalar.num_items


def test_xor_batch_state_matches_scalar_slots_and_fingerprints(small_shalla):
    xor = XorFilter.from_bits_per_key(small_shalla.positives[:500], 10.0)
    probe = small_shalla.positives[:300] + small_shalla.negatives[:300]
    for seed in (xor._seed, xor._seed + 7):
        h0, h1, h2, fingerprint = xor._batch_state(vectorized.KeyBatch(probe), seed)
        assert list(zip(h0.tolist(), h1.tolist(), h2.tolist())) == [
            xor._slots_for(key, seed) for key in probe
        ]
        assert fingerprint.tolist() == [xor._fingerprint(key, seed) for key in probe]


def test_add_many_matches_add_loop_and_counts(small_shalla):
    """add_many == looped add, including item accounting and codec bytes."""
    keys = small_shalla.positives
    batched = BloomFilter(num_bits=10 * len(keys), num_hashes=7)
    batched.add_many(keys)
    scalar = BloomFilter(num_bits=10 * len(keys), num_hashes=7)
    for key in keys:
        scalar.add(key)
    assert batched.num_items == scalar.num_items == len(keys)
    assert codec.dumps(batched) == codec.dumps(scalar)


def test_add_many_with_selection_matches_scalar(small_shalla):
    keys = small_shalla.positives[:300]
    selection = [4, 9, 17]
    batched = BloomFilter(num_bits=8192, num_hashes=3, selection=selection)
    batched.add_many_with_selection(keys, selection)
    scalar = BloomFilter(num_bits=8192, num_hashes=3, selection=selection)
    for key in keys:
        scalar.add_with_selection(key, selection)
    assert batched.bits.to_bytes() == scalar.bits.to_bytes()
    assert batched.num_items == scalar.num_items


def test_add_many_on_build_once_filter_raises(small_shalla):
    """Static filters reject bulk inserts loudly instead of AttributeError."""
    from repro.errors import ConstructionError

    xor = XorFilter.from_bits_per_key(small_shalla.positives[:100], 10.0)
    with pytest.raises(ConstructionError, match="incremental insertion"):
        xor.add_many(["new-key"])
    xor.add_many([])  # an empty bulk insert is a harmless no-op


def test_from_keys_derives_consistent_parameters():
    bloom = BloomFilter.from_keys(["a", "b", "c", "d"], bits_per_key=16.0)
    assert bloom.num_bits == 64
    assert bloom.num_items == 4
    assert all(bloom.contains_many(["a", "b", "c", "d"]))
