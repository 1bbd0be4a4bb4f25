"""Weighted Bloom filter (Bruck, Gao & Jiang, 2006) — the cost-aware baseline.

WBF varies the number of hash functions per key: keys whose misidentification
is expensive get more hash probes (so their false-positive probability drops),
cheap keys get fewer.  Because the hash count must be recomputed at query
time, WBF keeps a *cost cache* mapping the most expensive known keys to their
hash counts — exactly the extra memory and query-time overhead the paper
criticises (Section II, "Cost-based").

This implementation follows the paper's experimental setup:

* positive keys are inserted with the budget-optimal hash count
  ``k = ln2 · bits_per_key``;
* positive keys are additionally inserted with every *elevated* hash count
  present in the cost cache, so a cached negative key that happens to equal a
  positive key can never produce a false negative (zero-FNR is preserved);
* known negative keys are ranked by cost and the most expensive fraction is
  cached with an elevated hash count (more probes → smaller FPR for them);
* at query time the cached hash count is used when available, otherwise the
  default.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.batch import BatchMembership
from repro.core.bitarray import BitArray
from repro.core.bloom import optimal_num_hashes
from repro.errors import ConfigurationError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key, mix64, normalize_key
from repro.hashing.primitives import xxhash

_MASK64 = (1 << 64) - 1


class WeightedBloomFilter(BatchMembership):
    """Cost-aware Bloom filter with a cached per-key hash count.

    Args:
        num_bits: Size of the bit array (the *filter* budget; the cost cache is
            accounted separately, as in the paper).
        default_hashes: Hash count used for keys not present in the cost cache.
        max_hashes: Upper bound for elevated hash counts.
        cache_fraction: Fraction of the known negative keys (by descending
            cost) whose hash counts are cached.
    """

    algorithm_name = "WBF"

    def __init__(
        self,
        num_bits: int,
        default_hashes: int,
        max_hashes: int = 16,
        cache_fraction: float = 0.1,
    ) -> None:
        if num_bits <= 0:
            raise ConfigurationError("num_bits must be positive")
        if default_hashes < 1:
            raise ConfigurationError("default_hashes must be at least 1")
        if max_hashes < default_hashes:
            raise ConfigurationError("max_hashes must be >= default_hashes")
        if not 0.0 <= cache_fraction <= 1.0:
            raise ConfigurationError("cache_fraction must be in [0, 1]")
        self._bits = BitArray(num_bits)
        self._default_hashes = default_hashes
        self._max_hashes = max_hashes
        self._cache_fraction = cache_fraction
        self._hash_cache: Dict[Key, int] = {}
        self._num_items = 0

    # ------------------------------------------------------------------ #
    # Hashing
    # ------------------------------------------------------------------ #
    def _positions(self, key: Key, num_hashes: int) -> List[int]:
        data = normalize_key(key)
        base = xxhash(data)
        step = mix64(base ^ 0xA076_1D64_78BD_642F) | 1
        modulus = len(self._bits)
        return [((base + i * step) & _MASK64) % modulus for i in range(num_hashes)]

    def _hashes_for(self, key: Key) -> int:
        return self._hash_cache.get(key, self._default_hashes)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        positives: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
        total_bits: int = 0,
        bits_per_key: float = 10.0,
        cache_fraction: float = 0.1,
        max_extra_hashes: int = 6,
    ) -> "WeightedBloomFilter":
        """Build a WBF under a space budget with a cost cache over negatives.

        Args:
            positives: Keys to insert.
            negatives: Known negative keys used to populate the cost cache.
            costs: Per-key costs; missing keys default to 1.0.
            total_bits: Bit-array budget; derived from ``bits_per_key`` if 0.
            bits_per_key: Used when ``total_bits`` is 0.
            cache_fraction: Fraction of negatives (by descending cost) cached.
            max_extra_hashes: How many extra probes the most expensive cached
                keys receive on top of the default count.
        """
        positives = list(positives)
        if not positives:
            raise ConfigurationError("WeightedBloomFilter needs at least one positive key")
        if total_bits <= 0:
            total_bits = max(8, int(round(bits_per_key * len(positives))))
        per_key = total_bits / len(positives)
        default_hashes = optimal_num_hashes(per_key)
        wbf = cls(
            num_bits=total_bits,
            default_hashes=default_hashes,
            max_hashes=default_hashes + max_extra_hashes,
            cache_fraction=cache_fraction,
        )
        wbf._populate_cache(list(negatives), costs or {}, max_extra_hashes)
        wbf.add_many(positives)
        return wbf

    def _populate_cache(
        self,
        negatives: List[Key],
        costs: Mapping[Key, float],
        max_extra_hashes: int,
    ) -> None:
        if not negatives or self._cache_fraction == 0.0 or max_extra_hashes <= 0:
            return
        budget = max(1, int(len(negatives) * self._cache_fraction))
        ranked = sorted(negatives, key=lambda key: -float(costs.get(key, 1.0)))[:budget]
        if not ranked:
            return
        top_cost = float(costs.get(ranked[0], 1.0))
        low_cost = float(costs.get(ranked[-1], 1.0))
        span = max(top_cost - low_cost, 1e-12)
        for key in ranked:
            cost = float(costs.get(key, 1.0))
            extra = int(round(max_extra_hashes * (cost - low_cost) / span))
            self._hash_cache[key] = min(self._max_hashes, self._default_hashes + max(1, extra))

    def add(self, key: Key) -> None:
        """Insert a key with its (cached or default) hash count.

        A key also present in the cost cache is inserted with the *larger* of
        the two hash counts, so later queries with the elevated count still
        find all its bits set (zero FNR).
        """
        count = max(self._default_hashes, self._hashes_for(key))
        for position in self._positions(key, count):
            self._bits.set(position)
        self._num_items += 1

    def add_all(self, keys: Iterable[Key]) -> None:
        """Insert every key in ``keys`` (scalar loop; prefer :meth:`add_many`)."""
        for key in keys:
            self.add(key)

    def _add_batch(self, batch) -> None:
        """Batch form of :meth:`add`.

        Mirrors :meth:`_contains_batch`: one shared base/step pass, then
        probe round ``i`` sets bits only for the keys whose *insert* hash
        count (``max(default, cached)``, the zero-FNR rule of :meth:`add`)
        exceeds ``i``.
        """
        counts = np.fromiter(
            (
                max(self._default_hashes, self._hashes_for(key))
                for key in batch.keys
            ),
            dtype=np.int64,
            count=len(batch),
        )
        base = vec.hash_batch(xxhash, batch)
        step = vec.mix64(base ^ np.uint64(0xA076_1D64_78BD_642F)) | np.uint64(1)
        modulus = np.uint64(len(self._bits))
        for probe in range(int(counts.max()) if len(batch) else 0):
            active = counts > probe
            positions = (base + np.uint64(probe) * step) % modulus
            self._bits.set_many(positions[active])
        self._num_items += len(batch)

    # ------------------------------------------------------------------ #
    # Queries and accounting
    # ------------------------------------------------------------------ #
    def contains(self, key: Key) -> bool:
        """Membership test using the key's cached hash count (default otherwise)."""
        count = self._hashes_for(key)
        return all(self._bits.test(position) for position in self._positions(key, count))

    def _contains_batch(self, batch):
        """Batch form of :meth:`contains`.

        The double-hashed probe sequence is shared: one vectorized base/step
        pass covers every key, and probe round ``i`` only tests the keys
        whose (cached or default) hash count exceeds ``i``.
        """
        counts = np.fromiter(
            (self._hashes_for(key) for key in batch.keys),
            dtype=np.int64,
            count=len(batch),
        )
        base = vec.hash_batch(xxhash, batch)
        step = vec.mix64(base ^ np.uint64(0xA076_1D64_78BD_642F)) | np.uint64(1)
        modulus = np.uint64(len(self._bits))
        answers = np.ones(len(batch), dtype=bool)
        for probe in range(int(counts.max()) if len(batch) else 0):
            active = counts > probe
            positions = (base + np.uint64(probe) * step) % modulus
            answers &= ~active | self._bits.test_many(positions)
        return answers

    def __contains__(self, key: Key) -> bool:
        return self.contains(key)

    @property
    def default_hashes(self) -> int:
        """Hash count used for uncached keys."""
        return self._default_hashes

    @property
    def cache_size(self) -> int:
        """Number of keys in the cost cache."""
        return self._hash_cache and len(self._hash_cache) or 0

    def cached_hashes(self, key: Key) -> Optional[int]:
        """Return the cached hash count for ``key``, or None if not cached."""
        return self._hash_cache.get(key)

    def size_in_bits(self) -> int:
        """Bit-array budget only (the paper charges the cache to construction memory)."""
        return len(self._bits)

    def cache_size_in_bytes(self) -> int:
        """Approximate memory of the cached cost list (key bytes + 1-byte count)."""
        return sum(len(normalize_key(key)) + 1 for key in self._hash_cache)

    def size_in_bytes(self) -> int:
        """Bit-array bytes (rounded up)."""
        return (self.size_in_bits() + 7) // 8

    def to_frame(self) -> bytes:
        """Serialize the filter (bit array + cost cache) to one codec frame."""
        from repro.service import codec

        return codec.dumps(self)

    @classmethod
    def from_frame(cls, data: bytes) -> "WeightedBloomFilter":
        """Revive a filter from a frame written by :meth:`to_frame`."""
        from repro.service import codec

        return codec.loads_as(data, cls)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WeightedBloomFilter(bits={len(self._bits)}, default_k={self._default_hashes}, "
            f"cached={len(self._hash_cache)})"
        )
