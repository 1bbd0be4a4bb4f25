"""The shared batch-membership engine interface.

Every filter in the library mixes in :class:`BatchMembership`, which defines
the public batch query ``contains_many(keys) -> List[bool]`` and the bulk
construction entry ``add_many(keys)`` once: encode the keys into one
:class:`~repro.hashing.vectorized.KeyBatch`, hand it to the filter's
``_contains_batch`` / ``_add_batch`` array program, and fall back to the
scalar ``contains`` / ``add`` loop when numpy is absent (or the filter has
no batch path).  The membership hot paths thereby stop being "a loop over
``contains``" (or ``add``) and become one array program per filter, while
the scalar semantics stay the single source of truth — the engine must agree
with them bit for bit (pinned by ``tests/core/test_batch_equivalence.py``
for queries and ``tests/core/test_batch_build_equivalence.py`` for
construction).

The module also hosts the two hash kernels shared by the Bloom-probing
filters:

* :func:`positions_for_selection` — one *fixed* hash selection applied to a
  whole batch (Bloom round 1, H0, and bulk insertion);
* :func:`member_hashes` — a *per-key* family index over chosen rows, as
  decoded from the HashExpressor (the chain walk and HABF round 2).  For a
  :class:`~repro.hashing.double_hashing.DoubleHashFamily` this is one
  multiply-add off the h1/h2 base pair; for a table family each distinct
  index hashes only the rows that name it.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.errors import ConstructionError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key
from repro.hashing.double_hashing import DoubleHashFamily


class BatchMembership:
    """Mixin providing the engine-backed ``contains_many`` and ``add_many``.

    Subclasses override :meth:`_contains_batch` (and, for incrementally
    buildable filters, :meth:`_add_batch`) with an array program over a
    :class:`~repro.hashing.vectorized.KeyBatch`; the mixin handles encoding,
    the numpy gate and the scalar fallback.  Filters that cannot vectorize
    simply inherit the fallback loops, so every filter in the library exposes
    the same batch interface.
    """

    def contains_many(self, keys: Iterable[Key]) -> List[bool]:
        """Vector form of ``contains``, in input order."""
        keys = list(keys)
        np = vec.numpy_or_none()
        if np is not None and keys:
            answers = self._contains_batch(vec.KeyBatch(keys))
            if answers is not None:
                return answers.tolist()
        return self._contains_fallback(keys)

    def add_many(self, keys: Iterable[Key]) -> None:
        """Bulk form of ``add``: encode once, insert the whole batch.

        The resulting filter state is bit-for-bit identical to looping the
        scalar ``add`` over ``keys`` (pinned by
        ``tests/core/test_batch_build_equivalence.py``), so serialized codec
        frames do not depend on which path built the filter.  Filters without
        an ``_add_batch`` array program — or any filter when numpy is absent
        — take the scalar fallback loop.  Build-once filters (no ``add``,
        e.g. the Xor filter) raise
        :class:`~repro.errors.ConstructionError` instead of failing with an
        attribute lookup.
        """
        keys = list(keys)
        np = vec.numpy_or_none()
        if np is not None and keys:
            if self._add_batch(vec.KeyBatch(keys)):
                return
        self._add_fallback(keys)

    def _add_fallback(self, keys: List[Key]) -> None:
        """Scalar bulk-insert path used when numpy (or a batch program) is absent."""
        add = getattr(self, "add", None)
        if add is None and keys:
            raise ConstructionError(
                f"{type(self).__name__} is built once from its key set and does "
                "not support incremental insertion (add_many)"
            )
        for key in keys:
            add(key)

    def _add_batch(self, batch: "vec.KeyBatch") -> bool:
        """Insert a whole encoded batch; return ``True`` if handled.

        ``False`` means "no bulk-build path for this filter" and routes the
        call to the scalar fallback.  Only invoked when numpy is available.
        """
        return False

    def _contains_fallback(self, keys: List[Key]) -> List[bool]:
        """Scalar batch path used when numpy (or a batch program) is absent.

        Filters whose scalar query re-resolves state per call can override
        this to hoist that dispatch out of the loop (see ``BloomFilter``).
        """
        return [self.contains(key) for key in keys]

    def _contains_batch(self, batch: "vec.KeyBatch"):
        """Answer a whole encoded batch; return a bool ndarray or ``None``.

        ``None`` means "no batch path for this filter" and routes the call to
        the scalar fallback.  Only invoked when numpy is available.
        """
        return None


def positions_for_selection(family, batch: "vec.KeyBatch", selection: Sequence[int], modulus: int):
    """Bit positions of every key under one fixed hash selection.

    Returns a ``(len(selection), len(batch))`` array; row ``i`` holds the
    positions of all keys under ``family[selection[i]]`` reduced modulo
    ``modulus``.  Family-level ``hash_many`` deduplicates the underlying
    work (one primitive pass per selected function; one shared base pass for
    double hashing).
    """
    return family.hash_many(batch, indexes=list(selection), modulus=modulus)


def member_hashes(family, batch: "vec.KeyBatch", rows, indexes):
    """Full 64-bit hashes where batch row ``rows[i]`` uses ``family[indexes[i]]``.

    ``indexes`` is one family index for every row, or a vector with one per
    row — the per-key selections the HashExpressor walk and HABF's second
    round probe under.  Only the listed rows are hashed (row-exact, see
    :func:`repro.hashing.vectorized.hash_rows`): a
    :class:`~repro.hashing.double_hashing.DoubleHashFamily` derives every
    member from one memoised h1/h2 pair with a multiply-add; a table family
    hashes each distinct index over just the rows that name it.  Callers
    reduce the values by their own (possibly per-row) modulus.
    """
    np = vec.numpy_or_none()
    rows = np.asarray(rows, dtype=np.intp)
    if isinstance(family, DoubleHashFamily):
        h1, h2 = family.base_hashes_rows(batch, rows)
        steps = np.asarray(indexes, dtype=np.uint64) + np.uint64(1)
        return h1 + steps * (h2 | np.uint64(1))
    if np.ndim(indexes) == 0:
        return family[int(indexes)].hash_rows(batch, rows)
    indexes = np.asarray(indexes, dtype=np.int64)
    values = np.empty(rows.size, dtype=np.uint64)
    for index in np.unique(indexes).tolist():
        members = np.flatnonzero(indexes == index)
        values[members] = family[index].hash_rows(batch, rows[members])
    return values


__all__ = [
    "BatchMembership",
    "member_hashes",
    "positions_for_selection",
]
