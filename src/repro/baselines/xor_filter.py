"""Xor filter (Graf & Lemire, 2020) — the static non-learned baseline.

An Xor filter stores an array ``B`` of ``c`` fingerprint slots split into
three equal segments.  Each key maps to one slot per segment plus an
``f``-bit fingerprint; construction solves ``B[h0] ^ B[h1] ^ B[h2] =
fingerprint(key)`` for every key by peeling (repeatedly removing keys that are
the only key mapping to some slot, then assigning in reverse order).  Queries
recompute the three slots and the fingerprint and compare.

The paper sizes the fingerprint as ``⌊b / 1.23 + 32/|S|⌋`` bits for a
bits-per-key budget ``b``; the same sizing rule is used here so the Xor filter
competes under the same space budget as every other method.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchMembership
from repro.errors import CapacityError, ConfigurationError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key, mix64, normalize_key
from repro.hashing.primitives import xxhash

_MASK64 = (1 << 64) - 1


def fingerprint_bits_for_budget(bits_per_key: float, num_keys: int) -> int:
    """Fingerprint size used by the paper for a given bits-per-key budget."""
    if bits_per_key <= 0 or num_keys <= 0:
        raise ConfigurationError("bits_per_key and num_keys must be positive")
    return max(1, int(bits_per_key / 1.23 + 32 / num_keys))


def _distinct_encodings(keys: Sequence[Key]) -> List[bytes]:
    """The keys' canonical encodings, deduplicated in first-seen order.

    Keys that encode alike (``"a"`` and ``b"a"``) hash to the same slots, so
    peeling must see them once.
    """
    return list(dict.fromkeys(normalize_key(key) for key in keys))


class XorFilter(BatchMembership):
    """A static Xor filter over a fixed key set.

    Args:
        keys: The (positive) key set to encode.  Duplicate keys — and keys
            with the same canonical encoding — are allowed and deduplicated.
        fingerprint_bits: Width of each fingerprint slot in bits.
        seed: Construction seed; bumped automatically if peeling fails.
    """

    algorithm_name = "Xor"

    def __init__(self, keys: Sequence[Key], fingerprint_bits: int = 8, seed: int = 1) -> None:
        if fingerprint_bits < 1 or fingerprint_bits > 32:
            raise ConfigurationError("fingerprint_bits must be between 1 and 32")
        unique = _distinct_encodings(keys)
        if not unique:
            raise ConfigurationError("XorFilter needs at least one key")
        self._fingerprint_bits = fingerprint_bits
        self._fingerprint_mask = (1 << fingerprint_bits) - 1
        self._num_keys = len(unique)
        capacity = int(math.floor(1.23 * len(unique))) + 32
        self._segment_length = max(1, (capacity + 2) // 3)
        self._capacity = self._segment_length * 3
        self._seed = seed
        self._slots: List[int] = []
        self._build(unique)

    # ------------------------------------------------------------------ #
    # Hashing
    # ------------------------------------------------------------------ #
    def _hash64(self, key: Key, seed: int) -> int:
        return mix64(xxhash(normalize_key(key)) ^ (seed * 0x9E3779B97F4A7C15))

    def _slots_for(self, key: Key, seed: int) -> Tuple[int, int, int]:
        value = self._hash64(key, seed)
        h0 = value % self._segment_length
        h1 = self._segment_length + (mix64(value ^ 0x1234567) % self._segment_length)
        h2 = 2 * self._segment_length + (mix64(value ^ 0x89ABCDE) % self._segment_length)
        return h0, h1, h2

    def _fingerprint(self, key: Key, seed: int) -> int:
        fp = self._hash64(key, seed ^ 0x5F5F5F5F) & self._fingerprint_mask
        # Avoid the all-zero fingerprint so that an empty filter rejects keys.
        return fp if fp != 0 else 1

    def _batch_state(self, batch, seed: int):
        """Slots and fingerprints of a whole batch under ``seed``.

        One vectorized pass shared by construction (every peeling attempt)
        and :meth:`_contains_batch`; bit-for-bit equal to the scalar
        :meth:`_slots_for` / :meth:`_fingerprint` pair.
        """
        golden = 0x9E3779B97F4A7C15
        base = vec.hash_batch(xxhash, batch)
        value = vec.mix64(base ^ np.uint64((seed * golden) & _MASK64))
        segment = np.uint64(self._segment_length)
        h0 = value % segment
        h1 = segment + vec.mix64(value ^ np.uint64(0x1234567)) % segment
        h2 = np.uint64(2) * segment + vec.mix64(value ^ np.uint64(0x89ABCDE)) % segment
        fp_seed = ((seed ^ 0x5F5F5F5F) * golden) & _MASK64
        fingerprint = vec.mix64(base ^ np.uint64(fp_seed)) & np.uint64(self._fingerprint_mask)
        fingerprint = np.where(fingerprint == 0, np.uint64(1), fingerprint)
        return h0, h1, h2, fingerprint

    # ------------------------------------------------------------------ #
    # Construction (peeling)
    # ------------------------------------------------------------------ #
    def _build(self, keys: List[bytes]) -> None:
        batch = vec.KeyBatch(keys)
        for attempt in range(64):
            seed = self._seed + attempt
            # Hash every key once per attempt as one array program (the
            # xxhash base pass is memoised on the batch, so retries only pay
            # the mixing arithmetic).
            h0, h1, h2, fp = self._batch_state(batch, seed)
            key_slots = list(zip(h0.tolist(), h1.tolist(), h2.tolist()))
            fingerprints = fp.tolist()
            order = self._peel(key_slots)
            if order is not None:
                self._assign(order, key_slots, fingerprints)
                self._seed = seed
                return
        raise CapacityError(
            f"Xor filter peeling failed for {len(keys)} keys after 64 seeds"
        )

    def _peel(
        self, key_slots: List[Tuple[int, int, int]]
    ) -> Optional[List[Tuple[int, int]]]:
        """Return a peel order of ``(key_index, slot)`` pairs, or None on failure."""
        slot_count = [0] * self._capacity
        slot_xor = [0] * self._capacity
        for key_index, slots in enumerate(key_slots):
            for slot in slots:
                slot_count[slot] += 1
                slot_xor[slot] ^= key_index

        stack: List[Tuple[int, int]] = []
        singles = [slot for slot in range(self._capacity) if slot_count[slot] == 1]
        while singles:
            slot = singles.pop()
            if slot_count[slot] != 1:
                continue
            key_index = slot_xor[slot]
            stack.append((key_index, slot))
            for other in key_slots[key_index]:
                slot_count[other] -= 1
                slot_xor[other] ^= key_index
                if slot_count[other] == 1:
                    singles.append(other)
        if len(stack) != len(key_slots):
            return None
        return stack

    def _assign(
        self,
        order: List[Tuple[int, int]],
        key_slots: List[Tuple[int, int, int]],
        fingerprints: List[int],
    ) -> None:
        self._slots = [0] * self._capacity
        for key_index, free_slot in reversed(order):
            slots = key_slots[key_index]
            value = fingerprints[key_index]
            for slot in slots:
                if slot != free_slot:
                    value ^= self._slots[slot]
            self._slots[free_slot] = value

    # ------------------------------------------------------------------ #
    # Queries and accounting
    # ------------------------------------------------------------------ #
    def contains(self, key: Key) -> bool:
        """Membership test: exact for encoded keys, small FPR otherwise."""
        h0, h1, h2 = self._slots_for(key, self._seed)
        expected = self._fingerprint(key, self._seed)
        return (self._slots[h0] ^ self._slots[h1] ^ self._slots[h2]) == expected

    def __contains__(self, key: Key) -> bool:
        return self.contains(key)

    #: Lazily-built numpy copy of ``_slots`` (class default so codec-decoded
    #: instances, which bypass ``__init__``, start unbuilt too).
    _slots_array = None

    def _contains_batch(self, batch):
        """Batch form of :meth:`contains`: slots and fingerprints in one pass."""
        h0, h1, h2, fingerprint = self._batch_state(batch, self._seed)
        if self._slots_array is None:
            self._slots_array = np.asarray(self._slots, dtype=np.uint64)
        slots = self._slots_array
        idx = np.stack([h0, h1, h2]).astype(np.int64)
        return (slots[idx[0]] ^ slots[idx[1]] ^ slots[idx[2]]) == fingerprint

    @property
    def fingerprint_bits(self) -> int:
        """Width of each stored fingerprint."""
        return self._fingerprint_bits

    @property
    def num_keys(self) -> int:
        """Number of distinct key encodings stored."""
        return self._num_keys

    def size_in_bits(self) -> int:
        """Serialized size: ``capacity * fingerprint_bits``."""
        return self._capacity * self._fingerprint_bits

    def size_in_bytes(self) -> int:
        """Serialized size in bytes (rounded up)."""
        return (self.size_in_bits() + 7) // 8

    def expected_fpr(self) -> float:
        """Analytic FPR of an Xor filter: ``2^-fingerprint_bits``."""
        return 2.0 ** (-self._fingerprint_bits)

    @classmethod
    def from_bits_per_key(
        cls, keys: Sequence[Key], bits_per_key: float, seed: int = 1
    ) -> "XorFilter":
        """Build with the paper's fingerprint sizing rule for a space budget."""
        unique = _distinct_encodings(keys)
        bits = fingerprint_bits_for_budget(bits_per_key, len(unique))
        return cls(unique, fingerprint_bits=min(32, bits), seed=seed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"XorFilter(keys={self._num_keys}, fingerprint_bits={self._fingerprint_bits}, "
            f"slots={self._capacity})"
        )
