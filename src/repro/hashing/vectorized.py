"""Vectorized (numpy) batch implementations of the Table II hash primitives.

This module is the substrate of the batch-membership engine: every scalar
primitive in :mod:`repro.hashing.primitives` has a column-wise numpy twin
here that hashes a whole batch of keys in one array program.  Keys are
encoded **once** into a :class:`KeyBatch` (a zero-padded ``(n, max_len)``
uint8 matrix plus a length vector); the per-byte recurrences then run down
the byte columns with a live-key mask, so the Python-level loop is bounded
by the longest key, not by the batch size.

Bit-for-bit agreement with the scalar primitives is a hard requirement (the
HashExpressor chains and every serialized filter depend on it) and is pinned
by ``tests/hashing/test_vectorized.py``.  All arithmetic runs in ``uint64``,
whose wrap-around is exactly the ``& _MASK64`` masking of the scalar code;
32-bit cores keep an explicit ``& _MASK32``.

numpy is a hard runtime dependency: every batch entry point in the library
(``hash_many``, ``contains_many``, ``add_many``, ``query_many``) runs through
this module, and the scalar primitives remain the reference oracle the
engine is tested against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.hashing.base import Key, normalize_key
from repro.hashing import primitives as _scalar

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


class KeyBatch:
    """A batch of keys encoded once for the vectorized engine.

    Attributes:
        keys: The original user-facing keys, in order (kept for scalar
            fallbacks such as dict lookups in the WBF cost cache).
        data: The canonical byte encoding of each key.
        matrix: ``(n, max_len)`` uint8 array, rows zero-padded to the right.
        lengths: ``(n,)`` int64 array of true byte lengths.
        cache: Batch-lifetime memo used by hash functions and families to
            avoid re-hashing the same batch across engine stages (keyed by
            object identity, which is safe because the cached-for object is
            referenced by the filter for the duration of the call).

    A sub-batch from :meth:`take` slices only the numpy state eagerly; its
    ``keys``/``data`` lists materialise lazily from the parent, so engine
    stages that subset purely for vectorized hashing never pay Python-level
    per-row work.
    """

    __slots__ = ("_keys", "_data", "matrix", "lengths", "cache", "_matrix64", "_parent", "_rows")

    def __init__(self, keys: Sequence[Key]) -> None:
        self._keys: Optional[List[Key]] = list(keys)
        data = [normalize_key(key) for key in self._keys]
        self._data: Optional[List[bytes]] = data
        n = len(data)
        max_len = max((len(d) for d in data), default=0)
        buffer = bytearray(n * max_len)
        for row, d in enumerate(data):
            start = row * max_len
            buffer[start : start + len(d)] = d
        self.matrix = np.frombuffer(bytes(buffer), dtype=np.uint8).reshape(n, max_len)
        self.lengths = np.fromiter((len(d) for d in data), dtype=np.int64, count=n)
        self.cache: Dict = {}
        self._matrix64 = None
        self._parent: Optional["KeyBatch"] = None
        self._rows = None

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def keys(self) -> List[Key]:
        """The original keys (materialised from the parent on first access)."""
        if self._keys is None:
            self._keys = [self._parent.keys[int(i)] for i in self._rows]
        return self._keys

    @property
    def data(self) -> List[bytes]:
        """The canonical key bytes (materialised from the parent on first access)."""
        if self._data is None:
            self._data = [self._parent.data[int(i)] for i in self._rows]
        return self._data

    def take(self, indices) -> "KeyBatch":
        """Return a sub-batch holding the rows at ``indices`` (no re-encode).

        Numpy state is sliced immediately (C-speed fancy indexing);
        ``keys``/``data`` stay references into this batch until someone
        actually reads them.
        """
        rows = np.asarray(indices, dtype=np.intp)
        sub = KeyBatch.__new__(KeyBatch)
        sub._keys = None
        sub._data = None
        sub._parent = self
        sub._rows = rows
        sub.matrix = self.matrix[rows]
        sub.lengths = self.lengths[rows]
        sub.cache = {}
        sub._matrix64 = self._matrix64[rows] if self._matrix64 is not None else None
        return sub

    @property
    def matrix64(self):
        """The byte matrix widened to uint64, built lazily and kept.

        Every primitive reads byte columns as uint64 operands; widening the
        matrix once per batch replaces thousands of per-column ``astype``
        calls in the column loops.
        """
        if self._matrix64 is None:
            self._matrix64 = self.matrix.astype(np.uint64)
        return self._matrix64

    @classmethod
    def concat(cls, parts: Sequence["KeyBatch"]) -> "KeyBatch":
        """Merge encoded batches into one batch without re-normalising any key.

        The serving micro-batcher coalesces requests that were already
        encoded at arrival time (multi-key protocol requests) with freshly
        encoded scalar keys; concatenation re-pads the byte matrices to the
        widest part at numpy speed and never touches ``normalize_key`` again.
        Rows keep part order, so verdict slices map back to the original
        requests by offset.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("KeyBatch.concat needs at least one part")
        if len(parts) == 1:
            return parts[0]
        total = sum(len(part) for part in parts)
        width = max(part.matrix.shape[1] for part in parts)
        matrix = np.zeros((total, width), dtype=np.uint8)
        lengths = np.empty(total, dtype=np.int64)
        row = 0
        for part in parts:
            n = len(part)
            matrix[row : row + n, : part.matrix.shape[1]] = part.matrix
            lengths[row : row + n] = part.lengths
            row += n
        merged = cls.__new__(cls)
        merged._keys = [key for part in parts for key in part.keys]
        merged._data = [data for part in parts for data in part.data]
        merged._parent = None
        merged._rows = None
        merged.matrix = matrix
        merged.lengths = lengths
        merged.cache = {}
        merged._matrix64 = None
        return merged


BatchLike = Union[KeyBatch, Sequence[Key]]


def as_batch(keys: BatchLike) -> KeyBatch:
    """Coerce ``keys`` into a :class:`KeyBatch` (no-op if it already is one)."""
    if isinstance(keys, KeyBatch):
        return keys
    return KeyBatch(keys)


# --------------------------------------------------------------------- #
# Vector helpers (mirrors of the scalar helpers in primitives.py)
# --------------------------------------------------------------------- #
def _rotl32(value, amount: int):
    value = value & _MASK32
    return ((value << np.uint64(amount)) | (value >> np.uint64(32 - amount))) & _MASK32


def _rotl64(value, amount: int):
    return (value << np.uint64(amount)) | (value >> np.uint64(64 - amount))


def _fmix64(value):
    value = value ^ (value >> np.uint64(33))
    value = value * np.uint64(0xFF51AFD7ED558CCD)
    value = value ^ (value >> np.uint64(33))
    value = value * np.uint64(0xC4CEB9FE1A85EC53)
    return value ^ (value >> np.uint64(33))


def mix64(value):
    """Vector form of :func:`repro.hashing.base.mix64` (SplitMix64 finaliser)."""
    value = value ^ (value >> np.uint64(30))
    value = value * np.uint64(0xBF58476D1CE4E5B9)
    value = value ^ (value >> np.uint64(27))
    value = value * np.uint64(0x94D049BB133111EB)
    return value ^ (value >> np.uint64(31))


def _full(batch: KeyBatch, value: int):
    return np.full(len(batch), value, dtype=np.uint64)


def _columns(batch: KeyBatch):
    """Yield ``(mask, column)`` per byte position: mask = key still has bytes."""
    matrix, lengths = batch.matrix64, batch.lengths
    for j in range(matrix.shape[1]):
        yield lengths > j, matrix[:, j]


def _le_word(batch: KeyBatch, start: int, nbytes: int):
    """Little-endian integer of ``nbytes`` contiguous columns from ``start``."""
    matrix = batch.matrix64
    word = matrix[:, start].copy()
    for offset in range(1, nbytes):
        word |= matrix[:, start + offset] << np.uint64(8 * offset)
    return word


def _tail_byte(batch: KeyBatch, offsets, valid):
    """Gather one byte per key at per-key ``offsets``; 0 where not ``valid``.

    Out-of-range offsets of invalid rows are clipped before the gather so the
    fancy index stays in bounds.
    """
    matrix = batch.matrix64
    width = matrix.shape[1]
    if width == 0:
        return np.zeros(len(batch), dtype=np.uint64)
    safe = np.minimum(np.maximum(offsets, 0), width - 1)
    rows = np.arange(len(batch))
    gathered = matrix[rows, safe]
    return np.where(valid, gathered, np.uint64(0))


def _tail_le_word(batch: KeyBatch, offsets, nbytes: int, remaining):
    """Little-endian word of up to ``nbytes`` per-key tail bytes.

    Byte ``p`` of the word comes from ``offsets + p`` where ``p < remaining``,
    mirroring the scalar pattern ``int.from_bytes(data[i:], "little")`` with
    implicit zero padding.
    """
    word = np.zeros(len(batch), dtype=np.uint64)
    for p in range(nbytes):
        byte = _tail_byte(batch, offsets + p, remaining > p)
        word |= byte << np.uint64(8 * p)
    return word


# --------------------------------------------------------------------- #
# Byte-at-a-time primitives
# --------------------------------------------------------------------- #
def fnv1a(batch: KeyBatch):
    value = _full(batch, 0xCBF29CE484222325)
    for mask, col in _columns(batch):
        value = np.where(mask, (value ^ col) * np.uint64(0x100000001B3), value)
    return value


def djb2(batch: KeyBatch):
    value = _full(batch, 5381)
    for mask, col in _columns(batch):
        value = np.where(mask, value * np.uint64(33) + col, value)
    return value


def ndjb(batch: KeyBatch):
    value = _full(batch, 5381)
    for mask, col in _columns(batch):
        value = np.where(mask, (value * np.uint64(33)) ^ col, value)
    return value


def sdbm(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        updated = col + (value << np.uint64(6)) + (value << np.uint64(16)) - value
        value = np.where(mask, updated, value)
    return value


def bkdr(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        value = np.where(mask, value * np.uint64(131) + col, value)
    return value


def pjw(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        v = ((value << np.uint64(4)) + col) & _MASK32
        high = v & np.uint64(0xF0000000)
        v = np.where(high != 0, v ^ (high >> np.uint64(24)), v)
        v = v & (~high & _MASK32)
        value = np.where(mask, v, value)
    return _fmix64(value)


def elf(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        v = ((value << np.uint64(4)) + col) & _MASK32
        high = v & np.uint64(0xF0000000)
        adjusted = (v ^ (high >> np.uint64(24))) & (~high & _MASK32)
        v = np.where(high != 0, adjusted, v)
        value = np.where(mask, v, value)
    return _fmix64(value ^ (batch.lengths.astype(np.uint64) << np.uint64(16)))


def rs_hash(batch: KeyBatch):
    value = _full(batch, 0)
    # The multiplier sequence a, a*b, a*b^2, ... is data-independent, so it is
    # precomputed per column as plain Python ints.
    a, b = 63689, 378551
    for mask, col in _columns(batch):
        value = np.where(mask, value * np.uint64(a) + col, value)
        a = (a * b) & _MASK64
    return value


def js_hash(batch: KeyBatch):
    value = _full(batch, 1315423911)
    for mask, col in _columns(batch):
        updated = value ^ ((value << np.uint64(5)) + col + (value >> np.uint64(2)))
        value = np.where(mask, updated, value)
    return value


def ap_hash(batch: KeyBatch):
    value = _full(batch, 0xAAAAAAAA)
    for j, (mask, col) in enumerate(_columns(batch)):
        if j & 1 == 0:
            updated = value ^ ((value << np.uint64(7)) ^ col * (value >> np.uint64(3)))
        else:
            updated = value ^ ~((value << np.uint64(11)) + (col ^ (value >> np.uint64(5))))
        value = np.where(mask, updated, value)
    return value


def dek(batch: KeyBatch):
    value = batch.lengths.astype(np.uint64)
    for mask, col in _columns(batch):
        updated = (value << np.uint64(5)) ^ (value >> np.uint64(27)) ^ col
        value = np.where(mask, updated, value)
    return value


def brp(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        updated = (value << np.uint64(7)) ^ (value >> np.uint64(25)) ^ col
        value = np.where(mask, updated, value)
    return _fmix64(value)


def oaat(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        v = (value + col) & _MASK32
        v = (v + (v << np.uint64(10))) & _MASK32
        v = v ^ (v >> np.uint64(6))
        value = np.where(mask, v, value)
    value = (value + (value << np.uint64(3))) & _MASK32
    value = value ^ (value >> np.uint64(11))
    value = (value + (value << np.uint64(15))) & _MASK32
    return _fmix64(value)


def crc32(batch: KeyBatch):
    table = np.asarray(_scalar._crc32_table(), dtype=np.uint64)
    crc = _full(batch, 0xFFFFFFFF)
    for mask, col in _columns(batch):
        index = ((crc ^ col) & np.uint64(0xFF)).astype(np.intp)
        crc = np.where(mask, (crc >> np.uint64(8)) ^ table[index], crc)
    return _fmix64((crc ^ np.uint64(0xFFFFFFFF)) & _MASK32)


def hsieh(batch: KeyBatch):
    value = _full(batch, 0x811C9DC5)
    for mask, col in _columns(batch):
        v = ((value ^ col) * np.uint64(0x01000193)) & _MASK32
        v = v ^ (v >> np.uint64(15))
        value = np.where(mask, v, value)
    return _fmix64(value)


def pyhash(batch: KeyBatch):
    width = batch.matrix.shape[1]
    if width == 0:
        return np.zeros(len(batch), dtype=np.uint64)
    value = (batch.matrix64[:, 0] << np.uint64(7)) & _MASK64
    for mask, col in _columns(batch):
        value = np.where(mask, (value * np.uint64(1000003)) ^ col, value)
    value = value ^ batch.lengths.astype(np.uint64)
    return np.where(batch.lengths == 0, np.uint64(0), value)


def twmx(batch: KeyBatch):
    value = fnv1a(batch)
    value = ~value + (value << np.uint64(21))
    value = value ^ (value >> np.uint64(24))
    value = value + (value << np.uint64(3)) + (value << np.uint64(8))
    value = value ^ (value >> np.uint64(14))
    value = value + (value << np.uint64(2)) + (value << np.uint64(4))
    value = value ^ (value >> np.uint64(28))
    return value + (value << np.uint64(31))


# --------------------------------------------------------------------- #
# Word-at-a-time primitives
# --------------------------------------------------------------------- #
def murmur3(batch: KeyBatch):
    c1, c2 = np.uint64(0xCC9E2D51), np.uint64(0x1B873593)
    lengths = batch.lengths
    value = _full(batch, 0x9747B28C)
    for block in range(batch.matrix.shape[1] // 4):
        offset = block * 4
        mask = lengths >= offset + 4
        k = (_le_word(batch, offset, 4) * c1) & _MASK32
        k = (_rotl32(k, 15) * c2) & _MASK32
        v = _rotl32(value ^ k, 13)
        v = (v * np.uint64(5) + np.uint64(0xE6546B64)) & _MASK32
        value = np.where(mask, v, value)
    rounded = (lengths - (lengths % 4)).astype(np.int64)
    remaining = lengths - rounded
    k = np.zeros(len(batch), dtype=np.uint64)
    k = np.where(remaining >= 3, k ^ (_tail_byte(batch, rounded + 2, remaining >= 3) << np.uint64(16)), k)
    k = np.where(remaining >= 2, k ^ (_tail_byte(batch, rounded + 1, remaining >= 2) << np.uint64(8)), k)
    has_tail = remaining >= 1
    k = np.where(has_tail, k ^ _tail_byte(batch, rounded, has_tail), k)
    k = (k * c1) & _MASK32
    k = (_rotl32(k, 15) * c2) & _MASK32
    value = np.where(has_tail, value ^ k, value)
    value = value ^ lengths.astype(np.uint64)
    value = value ^ (value >> np.uint64(16))
    value = (value * np.uint64(0x85EBCA6B)) & _MASK32
    value = value ^ (value >> np.uint64(13))
    value = (value * np.uint64(0xC2B2AE35)) & _MASK32
    value = value ^ (value >> np.uint64(16))
    return _fmix64(value)


def cityhash(batch: KeyBatch):
    k2 = np.uint64(0x9AE16A3B2F90404F)
    lengths = batch.lengths
    value = lengths.astype(np.uint64) * k2
    for block in range(batch.matrix.shape[1] // 8):
        offset = block * 8
        mask = lengths >= offset + 8
        word = _le_word(batch, offset, 8)
        v = _rotl64(value ^ (word * k2), 29)
        v = v * np.uint64(5) + np.uint64(0x52DCE729)
        value = np.where(mask, v, value)
    rounded = (lengths - (lengths % 8)).astype(np.int64)
    remaining = lengths - rounded
    has_tail = remaining > 0
    word = _tail_le_word(batch, rounded, 7, remaining)
    tailed = _rotl64(value ^ (word * np.uint64(0xB492B66FBE98F273)), 33)
    value = np.where(has_tail, tailed, value)
    value = value ^ (value >> np.uint64(47))
    value = value * k2
    return value ^ (value >> np.uint64(47))


def xxhash(batch: KeyBatch):
    prime1 = np.uint64(0x9E3779B185EBCA87)
    prime2 = np.uint64(0xC2B2AE3D27D4EB4F)
    prime3 = np.uint64(0x165667B19E3779F9)
    prime5 = np.uint64(0x27D4EB2F165667C5)
    lengths = batch.lengths
    value = prime5 + lengths.astype(np.uint64)
    for block in range(batch.matrix.shape[1] // 8):
        offset = block * 8
        mask = lengths >= offset + 8
        word = _le_word(batch, offset, 8)
        v = value ^ (_rotl64(word * prime2, 31) * prime1)
        v = _rotl64(v, 27) * prime1 + prime3
        value = np.where(mask, v, value)
    rounded = (lengths - (lengths % 8)).astype(np.int64)
    for p in range(7):
        valid = rounded + p < lengths
        byte = _tail_byte(batch, rounded + p, valid)
        v = _rotl64(value ^ (byte * prime5), 11) * prime1
        value = np.where(valid, v, value)
    value = value ^ (value >> np.uint64(33))
    value = value * prime2
    value = value ^ (value >> np.uint64(29))
    value = value * prime3
    return value ^ (value >> np.uint64(32))


def superfast(batch: KeyBatch):
    lengths = batch.lengths
    value = lengths.astype(np.uint64) & _MASK32
    for chunk in range(batch.matrix.shape[1] // 4):
        offset = chunk * 4
        mask = lengths - offset >= 4
        low = _le_word(batch, offset, 2)
        high = _le_word(batch, offset + 2, 2)
        v = (value + low) & _MASK32
        tmp = ((high << np.uint64(11)) ^ v) & _MASK32
        v = ((v << np.uint64(16)) ^ tmp) & _MASK32
        v = (v + (v >> np.uint64(11))) & _MASK32
        value = np.where(mask, v, value)
    start = ((lengths // 4) * 4).astype(np.int64)
    remaining = lengths - start
    byte0 = _tail_byte(batch, start, remaining >= 1)
    byte1 = _tail_byte(batch, start + 1, remaining >= 2)
    byte2 = _tail_byte(batch, start + 2, remaining >= 3)
    two_le = byte0 | (byte1 << np.uint64(8))

    v3 = (value + two_le) & _MASK32
    v3 = v3 ^ ((v3 << np.uint64(16)) & _MASK32)
    v3 = v3 ^ ((byte2 << np.uint64(18)) & _MASK32)
    v3 = (v3 + (v3 >> np.uint64(11))) & _MASK32

    v2 = (value + two_le) & _MASK32
    v2 = v2 ^ ((v2 << np.uint64(11)) & _MASK32)
    v2 = (v2 + (v2 >> np.uint64(17))) & _MASK32

    v1 = (value + byte0) & _MASK32
    v1 = v1 ^ ((v1 << np.uint64(10)) & _MASK32)
    v1 = (v1 + (v1 >> np.uint64(1))) & _MASK32

    value = np.where(remaining == 3, v3, np.where(remaining == 2, v2, np.where(remaining == 1, v1, value)))
    value = value ^ ((value << np.uint64(3)) & _MASK32)
    value = (value + (value >> np.uint64(5))) & _MASK32
    value = value ^ ((value << np.uint64(4)) & _MASK32)
    value = (value + (value >> np.uint64(17))) & _MASK32
    value = value ^ ((value << np.uint64(25)) & _MASK32)
    value = (value + (value >> np.uint64(6))) & _MASK32
    return _fmix64(value)


def _jenkins_mix(a, b, c):
    a = (a - b - c) & _MASK32
    a = a ^ (c >> np.uint64(13))
    b = (b - c - a) & _MASK32
    b = b ^ ((a << np.uint64(8)) & _MASK32)
    c = (c - a - b) & _MASK32
    c = c ^ (b >> np.uint64(13))
    a = (a - b - c) & _MASK32
    a = a ^ (c >> np.uint64(12))
    b = (b - c - a) & _MASK32
    b = b ^ ((a << np.uint64(16)) & _MASK32)
    c = (c - a - b) & _MASK32
    c = c ^ (b >> np.uint64(5))
    a = (a - b - c) & _MASK32
    a = a ^ (c >> np.uint64(3))
    b = (b - c - a) & _MASK32
    b = b ^ ((a << np.uint64(10)) & _MASK32)
    c = (c - a - b) & _MASK32
    c = c ^ (b >> np.uint64(15))
    return a, b, c


def bob_jenkins(batch: KeyBatch):
    lengths = batch.lengths
    a = _full(batch, 0x9E3779B9)
    b = _full(batch, 0x9E3779B9)
    c = _full(batch, 0xDEADBEEF)
    for block in range(batch.matrix.shape[1] // 12):
        offset = block * 12
        mask = lengths >= offset + 12
        na = (a + _le_word(batch, offset, 4)) & _MASK32
        nb = (b + _le_word(batch, offset + 4, 4)) & _MASK32
        nc = (c + _le_word(batch, offset + 8, 4)) & _MASK32
        na, nb, nc = _jenkins_mix(na, nb, nc)
        a = np.where(mask, na, a)
        b = np.where(mask, nb, b)
        c = np.where(mask, nc, c)
    # Every key processes exactly one zero-padded tail block (possibly all
    # zeros when the length is a multiple of 12), as in the scalar code.
    start = ((lengths // 12) * 12).astype(np.int64)
    remaining = lengths - start
    word_a = _tail_le_word(batch, start, 4, remaining)
    word_b = _tail_le_word(batch, start + 4, 4, remaining - 4)
    word_c = _tail_le_word(batch, start + 8, 4, remaining - 8)
    a = (a + word_a) & _MASK32
    b = (b + word_b) & _MASK32
    c = (c + word_c + lengths.astype(np.uint64)) & _MASK32
    a, b, c = _jenkins_mix(a, b, c)
    return (b << np.uint64(32)) | c


#: Vectorized twin of :data:`repro.hashing.primitives.PRIMITIVES`.
BATCH_PRIMITIVES: Dict[str, Callable[[KeyBatch], "np.ndarray"]] = {
    "xxhash": xxhash,
    "cityhash": cityhash,
    "murmur3": murmur3,
    "superfast": superfast,
    "crc32": crc32,
    "fnv": fnv1a,
    "bob": bob_jenkins,
    "oaat": oaat,
    "dek": dek,
    "hsieh": hsieh,
    "pyhash": pyhash,
    "brp": brp,
    "twmx": twmx,
    "ap": ap_hash,
    "ndjb": ndjb,
    "djb": djb2,
    "bkdr": bkdr,
    "pjw": pjw,
    "js": js_hash,
    "rs": rs_hash,
    "sdbm": sdbm,
    "elf": elf,
}

#: Scalar callable -> vectorized twin, for lookups by HashFunction.primitive.
_BY_CALLABLE: Dict[Callable[[bytes], int], Callable[[KeyBatch], "np.ndarray"]] = {
    _scalar.PRIMITIVES[name]: fn for name, fn in BATCH_PRIMITIVES.items()
}


def batch_primitive_for(
    primitive: Callable[[bytes], int]
) -> Optional[Callable[[KeyBatch], "np.ndarray"]]:
    """Return the vectorized twin of a scalar primitive, or ``None``."""
    return _BY_CALLABLE.get(primitive)


#: A sub-batch may answer a primitive by slicing its parent's pass.  When the
#: parent has no cached pass yet, computing it there eagerly is still the
#: right call while the parent stays window-sized: the Python column loop
#: dominates at that scale and costs the same however many rows ride along,
#: and sibling sub-batches (shard groups of one serving window) then slice
#: the same pass for free.  Past this row count the per-row work dominates,
#: so a take from a large batch hashes only its own rows — which preserves
#: the short-circuit savings of probes that progressively narrow a big
#: batch (see ``BloomFilter._probe_batch``).
_PARENT_EAGER_ROWS = 4096

#: Below this row count the scalar primitive loop beats the numpy column
#: pass.  The column pass costs a near-constant ~200-400us setup (one Python
#: iteration per key-byte column, each running a handful of ufuncs on a tiny
#: array) while the scalar loop costs ~1-7us per key, so tiny batches — a
#: dispatcher's per-replica sub-window, a single-key probe riding the batch
#: path — were paying 10-30x overhead.  Measured on this repo's Shalla-like
#: keys (~25-byte URLs): scalar wins at <=32 rows for every primitive tried
#: (xxhash, bkdr, crc32, fnv1a; crossover lands in the 32-48 row band), so
#: 32 is the conservative cut.  Results are bit-identical either way (the
#: vectorized twins are pinned bit-for-bit against the scalar primitives),
#: and memoisation/slicing semantics are unchanged.
SCALAR_CROSSOVER_ROWS = 32


def hash_batch(primitive: Callable[[bytes], int], batch: KeyBatch):
    """Hash every key in ``batch`` with ``primitive`` as one uint64 vector.

    Uses the vectorized twin when one exists and the batch is larger than
    :data:`SCALAR_CROSSOVER_ROWS`; otherwise evaluates the scalar primitive
    per key (still saving the per-key normalisation, since the batch carries
    pre-encoded bytes).  Results are memoised on the batch, so
    engine stages that derive several values from one primitive pass (Xor
    slots + fingerprints, WBF base/step, double-hashing bases) hash each key
    once per batch.

    Sub-batches made with :meth:`KeyBatch.take` reuse their parent's pass by
    row-slicing it (hash values are per-key, so slicing is exact).  This is
    what makes sharded serving windows affordable: the router and N shard
    filters together pay one column-loop pass per primitive for the whole
    window instead of one per shard.
    """
    cache_key = ("primitive", primitive)
    values = batch.cache.get(cache_key)
    if values is not None:
        return values
    parent = batch._parent
    if parent is not None and (
        cache_key in parent.cache or len(parent) <= _PARENT_EAGER_ROWS
    ):
        values = hash_batch(primitive, parent)[batch._rows]
    else:
        vectorized = _BY_CALLABLE.get(primitive)
        if vectorized is not None and len(batch) > SCALAR_CROSSOVER_ROWS:
            values = vectorized(batch)
        else:
            values = np.fromiter(
                ((primitive(d) & _MASK64) for d in batch.data),
                dtype=np.uint64,
                count=len(batch),
            )
    batch.cache[cache_key] = values
    return values


def hash_rows(primitive: Callable[[bytes], int], batch: KeyBatch, rows):
    """Hash only the keys at ``rows`` of ``batch`` with ``primitive``.

    The row-exact twin of :func:`hash_batch` for engine stages that touch a
    few rows per hash function — the HABF chain walk and second-round probe,
    where each family index serves just the rows whose selection names it.
    ``rows`` index ``batch``; values are memoised per row on the *window*
    (the root of ``batch``'s :meth:`KeyBatch.take` chain), so every stage
    and every sub-batch of one window hashes a key under one primitive at
    most once.  A whole-window pass already on the window (the router's
    xxhash, say) is sliced for free.  Up to :data:`SCALAR_CROSSOVER_ROWS`
    missing rows are hashed with the scalar primitive; more take the
    memoised window pass (or, on windows past ``_PARENT_EAGER_ROWS`` rows, a
    vectorized pass over just the missing rows).  Results are bit-identical
    to :func:`hash_batch`.
    """
    rows = np.asarray(rows, dtype=np.intp)
    while batch._parent is not None:
        rows = batch._rows[rows]
        batch = batch._parent
    cache_key = ("primitive", primitive)
    full = batch.cache.get(cache_key)
    if full is not None:
        return full[rows]
    memo = batch.cache.get(("primitive-rows", primitive))
    if memo is None:
        memo = (np.zeros(len(batch), dtype=np.uint64), np.zeros(len(batch), dtype=bool))
        batch.cache[("primitive-rows", primitive)] = memo
    values, known = memo
    missing = rows[~known[rows]]
    vectorized = _BY_CALLABLE.get(primitive)
    if missing.size > SCALAR_CROSSOVER_ROWS and vectorized is not None:
        if len(batch) <= _PARENT_EAGER_ROWS:
            return hash_batch(primitive, batch)[rows]
        values[missing] = vectorized(batch.take(missing))
    elif missing.size:
        data = batch.data
        values[missing] = np.fromiter(
            ((primitive(data[row]) & _MASK64) for row in missing.tolist()),
            dtype=np.uint64,
            count=missing.size,
        )
    known[missing] = True
    return values[rows]
