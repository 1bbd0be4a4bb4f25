"""Bit-for-bit equivalence of the vectorized hash engine with the scalars.

The batch engine is only correct if every vectorized primitive agrees with
its scalar twin on every byte length (word-based primitives have distinct
full-block and tail code paths, so lengths sweep across several block
boundaries), and if the family-level ``hash_many`` entry points agree with
per-key calls — seeds, double hashing and modulus reduction included.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.hashing import primitives as scalar_primitives
from repro.hashing import vectorized
from repro.hashing.base import HashFunction
from repro.hashing.double_hashing import DoubleHashFamily
from repro.hashing.registry import GLOBAL_HASH_FAMILY, build_family


@pytest.fixture(scope="module")
def byte_corpus():
    """Byte strings covering empty input and every residue of 4/8/12-byte blocks."""
    rng = random.Random(2024)
    corpus = [b""]
    for length in list(range(1, 30)) + [31, 32, 33, 47, 48, 49, 95, 96, 97, 128]:
        for _ in range(3):
            corpus.append(bytes(rng.randrange(256) for _ in range(length)))
    return corpus


@pytest.fixture(scope="module")
def corpus_batch(byte_corpus):
    return vectorized.KeyBatch(byte_corpus)


@pytest.mark.parametrize("name", list(scalar_primitives.PRIMITIVES))
def test_batch_primitive_matches_scalar(name, byte_corpus, corpus_batch):
    scalar = scalar_primitives.PRIMITIVES[name]
    expected = [scalar(data) for data in byte_corpus]
    produced = vectorized.BATCH_PRIMITIVES[name](corpus_batch)
    assert produced.dtype == np.uint64
    assert produced.tolist() == expected


@pytest.mark.parametrize("name", list(scalar_primitives.PRIMITIVES))
def test_batch_primitive_empty_batch(name):
    empty = vectorized.KeyBatch([])
    assert vectorized.BATCH_PRIMITIVES[name](empty).shape == (0,)


def test_key_batch_take_preserves_rows():
    keys = ["a", "bb", b"\x00\x01\x02", 7, ""]
    batch = vectorized.KeyBatch(keys)
    sub = batch.take([3, 0])
    assert sub.keys == [7, "a"]
    assert sub.data == [batch.data[3], batch.data[0]]
    assert sub.lengths.tolist() == [8, 1]


def test_hash_function_hash_many_matches_scalar(tiny_keys):
    function = GLOBAL_HASH_FAMILY[2].with_seed(99)
    assert function.hash_many(tiny_keys).tolist() == [function.raw(k) for k in tiny_keys]
    assert function.hash_many(tiny_keys, 101).tolist() == [
        function(k, 101) for k in tiny_keys
    ]


def test_hash_function_hash_many_rejects_bad_modulus(tiny_keys):
    with pytest.raises(ValueError):
        GLOBAL_HASH_FAMILY[0].hash_many(tiny_keys, -1)


def test_family_hash_many_matches_scalar(tiny_keys):
    family = build_family(seed=3)
    indexes = [0, 5, 11, 21]
    matrix = family.hash_many(tiny_keys, indexes=indexes, modulus=4093)
    assert matrix.shape == (len(indexes), len(tiny_keys))
    for row, index in enumerate(indexes):
        assert matrix[row].tolist() == [family[index](k, 4093) for k in tiny_keys]


def test_double_family_hash_many_matches_scalar(tiny_keys):
    family = DoubleHashFamily(size=6, primitive="murmur3", seed=17)
    matrix = family.hash_many(tiny_keys, modulus=997)
    for index in range(6):
        assert matrix[index].tolist() == [family[index](k, 997) for k in tiny_keys]
    single = family[3].hash_many(tiny_keys, 997)
    assert single.tolist() == [family[3](k, 997) for k in tiny_keys]


def test_double_family_base_pass_is_memoised(tiny_keys):
    family = DoubleHashFamily(size=4, primitive="xxhash", seed=1)
    batch = vectorized.KeyBatch(tiny_keys)
    first = family.base_hashes_many(batch)
    second = family.base_hashes_many(batch)
    assert first[0] is second[0] and first[1] is second[1]


def test_hash_many_fallback_without_numpy(tiny_keys, monkeypatch):
    family = build_family(seed=3)
    expected = family.hash_many(tiny_keys, indexes=[1, 4], modulus=211)
    monkeypatch.setattr(vectorized, "np", None)
    fallback = family.hash_many(tiny_keys, indexes=[1, 4], modulus=211)
    assert isinstance(fallback, list)
    assert fallback == expected.tolist()


def test_hash_batch_falls_back_to_scalar_for_unknown_primitive(tiny_keys):
    def custom(data: bytes) -> int:
        return (len(data) * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)

    function = HashFunction(name="custom", index=0, primitive=custom)
    assert function.hash_many(tiny_keys).tolist() == [function.raw(k) for k in tiny_keys]


def test_key_batch_concat_matches_fresh_encoding():
    """concat of pre-encoded parts equals encoding all keys in one pass.

    This is the serving micro-batcher's reuse path: multi-key requests are
    encoded at arrival and merged with the scalar tail at flush time.
    """
    groups = [["alpha", "longer-key-here"], [b"\x00\x01", 42], [""], ["tail"]]
    parts = [vectorized.KeyBatch(group) for group in groups]
    merged = vectorized.KeyBatch.concat(parts)
    flat = [key for group in groups for key in group]
    fresh = vectorized.KeyBatch(flat)
    assert merged.keys == flat
    assert merged.data == fresh.data
    assert merged.matrix.shape == fresh.matrix.shape
    assert np.array_equal(merged.matrix, fresh.matrix)
    assert np.array_equal(merged.lengths, fresh.lengths)
    # Hash programs see identical inputs whichever way the batch was built.
    for name in ("xxhash", "murmur3"):
        assert np.array_equal(
            vectorized.BATCH_PRIMITIVES[name](merged),
            vectorized.BATCH_PRIMITIVES[name](fresh),
        )


def test_key_batch_concat_edge_cases():
    single = vectorized.KeyBatch(["only"])
    assert vectorized.KeyBatch.concat([single]) is single
    with pytest.raises(ValueError):
        vectorized.KeyBatch.concat([])
    with_empty = vectorized.KeyBatch.concat([vectorized.KeyBatch([]), single])
    assert with_empty.keys == ["only"]
    assert len(with_empty) == 1


def test_small_windows_take_the_scalar_path_bit_identically():
    # hash_batch answers at or below the crossover with the scalar loop and
    # above it with the numpy column pass; both must produce identical
    # values, so the crossover is a pure latency knob, never a correctness
    # one.
    rows = vectorized.SCALAR_CROSSOVER_ROWS
    keys = [f"https://example.org/path/{i}".encode() for i in range(rows * 2)]
    small = vectorized.as_batch(keys[:rows])  # scalar side of the cut
    large = vectorized.as_batch(keys)  # vectorized side
    for name in ("xxhash", "bkdr", "crc32", "fnv"):
        primitive = scalar_primitives.PRIMITIVES[name]
        np.testing.assert_array_equal(
            np.asarray(vectorized.hash_batch(primitive, small)),
            np.asarray(vectorized.hash_batch(primitive, large))[:rows],
        )


@pytest.mark.parametrize("window", [64, 5000])
def test_hash_rows_matches_the_whole_batch_pass(window):
    # Row-exact hashing (scalar below the crossover, a window pass or a
    # vectorized pass over the missing rows above it) must return exactly the
    # whole-batch values, for rows addressed through a take() chain too.
    keys = [f"https://example.org/row/{i}?q={i * 7}" for i in range(window)]
    rng = np.random.default_rng(3)
    for name in ("xxhash", "murmur3", "pjw", "sdbm"):
        primitive = scalar_primitives.PRIMITIVES[name]
        expected = np.asarray(vectorized.hash_batch(primitive, vectorized.KeyBatch(keys)))
        batch = vectorized.KeyBatch(keys)
        for size in (0, 1, vectorized.SCALAR_CROSSOVER_ROWS, vectorized.SCALAR_CROSSOVER_ROWS + 1, 40):
            rows = rng.choice(window, size=size, replace=False)
            np.testing.assert_array_equal(vectorized.hash_rows(primitive, batch, rows), expected[rows])
        sub = batch.take(np.arange(window)[::-3])
        rows = np.arange(len(sub))[::2]
        np.testing.assert_array_equal(
            vectorized.hash_rows(primitive, sub, rows), expected[::-3][::2]
        )
        np.testing.assert_array_equal(
            vectorized.hash_rows(primitive, batch, np.arange(window)), expected
        )
