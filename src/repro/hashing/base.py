"""Core hash abstractions: key normalisation and the :class:`HashFunction` wrapper.

Every filter in this package hashes *bytes*.  Keys supplied by users may be
``str``, ``bytes`` or ``int``; :func:`normalize_key` converts them to a
canonical byte representation once, so that the same logical key always maps
to the same bits regardless of which filter consumes it.

A :class:`HashFunction` pairs a raw primitive (a callable mapping ``bytes`` to
an unsigned 64-bit integer) with a name, an index in the global family and an
optional seed.  Seeding is implemented by mixing the seed into the primitive's
output with a 64-bit finaliser, which keeps the primitives themselves simple
and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

Key = Union[str, bytes, int]

_MASK64 = (1 << 64) - 1


def _vectorized():
    # Imported lazily: vectorized.py itself imports normalize_key from here.
    from repro.hashing import vectorized

    return vectorized


def normalize_key(key: Key) -> bytes:
    """Convert a user-facing key into canonical bytes.

    ``str`` keys are UTF-8 encoded, ``int`` keys are encoded little-endian in
    the minimal number of bytes (with a fixed 8-byte width for values that fit
    in 64 bits so that integer keys have a uniform layout), and ``bytes`` are
    returned unchanged.

    Raises:
        TypeError: if the key is not ``str``, ``bytes`` or ``int``.
    """
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, int):
        if 0 <= key < (1 << 64):
            return key.to_bytes(8, "little")
        length = max(1, (key.bit_length() + 8) // 8)
        return key.to_bytes(length, "little", signed=True)
    raise TypeError(f"unsupported key type: {type(key).__name__}")


def mix64(value: int) -> int:
    """SplitMix64 finalisation step; a cheap, well-distributed 64-bit mixer."""
    value &= _MASK64
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return (value ^ (value >> 31)) & _MASK64


@dataclass(frozen=True)
class HashFunction:
    """A named, optionally seeded hash function over canonical key bytes.

    Attributes:
        name: Human-readable primitive name (e.g. ``"fnv"``, ``"murmur3"``).
        index: Position of this function inside its :class:`~repro.hashing.registry.HashFamily`.
            The HashExpressor stores this index (1-based on the wire) in its cells.
        primitive: Raw callable mapping ``bytes`` to an unsigned 64-bit integer.
        seed: Seed mixed into the primitive output; ``0`` means unseeded.
    """

    name: str
    index: int
    primitive: Callable[[bytes], int] = field(repr=False)
    seed: int = 0

    def raw(self, key: Key) -> int:
        """Return the full 64-bit hash of ``key`` (seed already mixed in)."""
        value = self.primitive(normalize_key(key))
        if self.seed:
            value = mix64(value ^ (self.seed * 0x9E3779B97F4A7C15))
        return value & _MASK64

    def __call__(self, key: Key, modulus: int) -> int:
        """Return the hash of ``key`` reduced into ``[0, modulus)``."""
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        return self.raw(key) % modulus

    def hash_many(self, keys: Sequence[Key], modulus: int = 0):
        """Vector form of :meth:`raw` / :meth:`__call__` over a whole batch.

        Encodes the keys once (or reuses an already encoded
        :class:`~repro.hashing.vectorized.KeyBatch`), evaluates the
        primitive's vectorized twin column-wise and returns a ``uint64``
        ndarray.  ``modulus`` of 0 means "no reduction" (full 64-bit hashes);
        a positive modulus reduces every hash into ``[0, modulus)`` exactly
        like :meth:`__call__`.
        """
        if modulus < 0:
            raise ValueError("modulus must be positive (or 0 for no reduction)")
        vec = _vectorized()
        batch = vec.as_batch(keys)
        cache_key = ("hashfn", id(self))
        values = batch.cache.get(cache_key)
        if values is None:
            values = vec.hash_batch(self.primitive, batch)
            if self.seed:
                salt = (self.seed * 0x9E3779B97F4A7C15) & _MASK64
                values = vec.mix64(values ^ np.uint64(salt))
            batch.cache[cache_key] = values
        if modulus:
            return values % np.uint64(modulus)
        return values

    def hash_rows(self, batch, rows):
        """Full 64-bit hashes of the keys at ``rows`` of an encoded batch.

        The row-exact form of :meth:`hash_many` (see
        :func:`repro.hashing.vectorized.hash_rows`): only those rows are
        hashed, memoised per row on the batch's window.
        """
        vec = _vectorized()
        values = vec.hash_rows(self.primitive, batch, rows)
        if self.seed:
            salt = (self.seed * 0x9E3779B97F4A7C15) & _MASK64
            values = vec.mix64(values ^ np.uint64(salt))
        return values

    def with_seed(self, seed: int) -> "HashFunction":
        """Return a copy of this function using a different seed."""
        return HashFunction(name=self.name, index=self.index, primitive=self.primitive, seed=seed)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f"#seed={self.seed}" if self.seed else ""
        return f"{self.name}[{self.index}]{suffix}"
