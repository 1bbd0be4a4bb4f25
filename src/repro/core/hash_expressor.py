"""HashExpressor: the lightweight table storing customised hash selections.

Structure (paper Fig. 2(a)): ``ω`` cells, each a 2-tuple ``(endbit, hashindex)``.
``hashindex`` stores a 1-based index into the global hash family (0 means the
cell is empty); ``endbit`` marks the final cell of an inserted key's chain.

Insertion (Fig. 2(b)) walks a chain of cells: the key is first mapped with a
predefined unified hash ``f``; each visited cell either already stores one of
the key's still-unassigned hash functions (the chain reuses it) or is empty
(one of the unassigned functions is placed there); the next cell is addressed
by the hash function just assigned; the chain ends when all ``k`` functions
are placed, and the final cell's ``endbit`` is set.

Query (Fig. 2(c)) retraces the chain and returns the recovered hash selection
only if it reaches ``k`` functions and the final cell's ``endbit`` is 1 —
otherwise the key is assumed to use the initial selection ``H0``.

The paper's Case-1 step says "randomly choose an invalid hash function"; this
implementation instead performs a small depth-first search over the (at most
``k!``, with ``k`` ≈ 3) placement orders and commits the first order that
completes the chain, preferring orders that reuse already-stored cells.  This
matches the paper's own refinement ("we store the one with maximized overlap
with hash functions already stored in HashExpressor") and only increases the
insertion success probability; the query semantics are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.hashing import vectorized as vec
from repro.hashing.base import HashFunction, Key
from repro.hashing.primitives import xxhash
from repro.hashing.registry import HashFamily

#: The unified hash ``f`` used to address the first cell of every chain.
_UNIFIED_HASH = HashFunction(name="unified-f", index=-1, primitive=xxhash, seed=0x5EED_F00D)


@dataclass(frozen=True)
class ExpressorStats:
    """Occupancy statistics, used by the memory/analysis experiments."""

    num_cells: int
    occupied_cells: int
    inserted_keys: int
    cell_bits: int

    @property
    def load_factor(self) -> float:
        """Fraction of cells that are non-empty."""
        if self.num_cells == 0:
            return 0.0
        return self.occupied_cells / self.num_cells


class HashExpressor:
    """The ω-cell hash table storing adjusted hash selections (paper Fig. 2).

    Args:
        num_cells: Number of cells ``ω``.
        cell_hash_bits: Bits of ``hashindex`` per cell; limits which hash
            family indexes can be stored (index < ``2**cell_hash_bits - 1``).
        family: The global hash family whose indexes the cells reference.
    """

    def __init__(self, num_cells: int, cell_hash_bits: int, family: HashFamily) -> None:
        if num_cells <= 0:
            raise ConfigurationError("HashExpressor needs at least one cell")
        if cell_hash_bits < 1:
            raise ConfigurationError("cell_hash_bits must be at least 1")
        self._num_cells = num_cells
        self._cell_hash_bits = cell_hash_bits
        self._family = family
        # hashindex per cell, 0 = empty, otherwise 1-based family index.
        self._hash_index: List[int] = [0] * num_cells
        self._endbit: List[bool] = [False] * num_cells
        self._inserted_keys = 0
        self._arrays = None

    @classmethod
    def stack(cls, expressors: Sequence[Optional["HashExpressor"]]) -> "HashExpressor":
        """One expressor whose cell table is ``expressors``' tables end to end.

        Part ``i`` of the stack is ``expressors[i]`` (``None`` is an empty,
        zero-cell part).  A stack answers :meth:`query_many_batch` with
        ``parts`` naming each row's part — the fused walk a sharded store
        runs over all its HABF shards at once — and every row walks exactly
        the chain its own expressor would.  The parts must share one hash
        family, and a stack is a read-only batch-walk object: the scalar
        methods treat it as a single table.
        """
        np = vec.numpy_or_none()
        present = [e for e in expressors if e is not None]
        tables = [e._cell_arrays() for e in present]
        sizes = [e.num_cells if e is not None else 0 for e in expressors]
        stacked = cls.__new__(cls)
        stacked._num_cells = sum(sizes)
        stacked._cell_hash_bits = max(e.cell_hash_bits for e in present)
        stacked._family = present[0]._family
        stacked._hash_index = np.concatenate([table[0] for table in tables])
        stacked._endbit = np.concatenate([table[1] for table in tables])
        stacked._inserted_keys = sum(e.inserted_keys for e in present)
        stacked._arrays = (
            stacked._hash_index,
            stacked._endbit,
            np.cumsum([0] + sizes[:-1]).astype(np.int64),
            np.asarray(sizes, dtype=np.uint64),
        )
        return stacked

    def _cell_arrays(self):
        """``(hash_index, endbit, part_base, part_cells)`` as numpy arrays.

        Built once and kept until the next insertion (a built HABF's
        expressor never changes again); a plain expressor is a one-part
        stack.
        """
        if self._arrays is None:
            np = vec.numpy_or_none()
            self._arrays = (
                np.asarray(self._hash_index, dtype=np.int32),
                np.asarray(self._endbit, dtype=bool),
                np.zeros(1, dtype=np.int64),
                np.full(1, self._num_cells, dtype=np.uint64),
            )
        return self._arrays

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_cells(self) -> int:
        """Number of cells ω."""
        return self._num_cells

    @property
    def cell_hash_bits(self) -> int:
        """Bits of ``hashindex`` per cell."""
        return self._cell_hash_bits

    @property
    def max_storable_index(self) -> int:
        """Largest family index a cell can store (exclusive upper bound)."""
        return (1 << self._cell_hash_bits) - 1

    @property
    def inserted_keys(self) -> int:
        """Number of keys whose selections were successfully inserted."""
        return self._inserted_keys

    def size_in_bits(self) -> int:
        """Space of the serialized cell array: ``ω * (1 + cell_hash_bits)`` bits."""
        return self._num_cells * (1 + self._cell_hash_bits)

    def stats(self) -> ExpressorStats:
        """Return occupancy statistics."""
        occupied = sum(1 for value in self._hash_index if value != 0)
        return ExpressorStats(
            num_cells=self._num_cells,
            occupied_cells=occupied,
            inserted_keys=self._inserted_keys,
            cell_bits=1 + self._cell_hash_bits,
        )

    def cell(self, index: int) -> Tuple[bool, int]:
        """Return ``(endbit, hashindex)`` of cell ``index`` (hashindex 1-based, 0=empty)."""
        return self._endbit[index], self._hash_index[index]

    def is_empty_cell(self, index: int) -> bool:
        """A cell is empty when both fields are zero (paper's definition)."""
        return self._hash_index[index] == 0 and not self._endbit[index]

    def storable(self, selection: Sequence[int]) -> bool:
        """Return True if every family index in ``selection`` fits in a cell."""
        limit = self.max_storable_index
        return all(0 <= index < limit for index in selection)

    # ------------------------------------------------------------------ #
    # Cell addressing
    # ------------------------------------------------------------------ #
    def _first_cell(self, key: Key) -> int:
        return _UNIFIED_HASH(key, self._num_cells)

    def _next_cell(self, key: Key, family_index: int) -> int:
        return self._family[family_index](key, self._num_cells)

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def try_insert(self, key: Key, selection: Sequence[int]) -> bool:
        """Attempt to insert ``selection`` (family indexes) for ``key``.

        Returns True and commits the cell writes if a complete chain can be
        built, otherwise returns False and leaves the table untouched.
        """
        if len(set(selection)) != len(selection):
            raise ConfigurationError("hash selection must not contain duplicates")
        if not self.storable(selection):
            return False
        plan = self._search_chain(key, list(selection))
        if plan is None:
            return False
        self._arrays = None
        for cell_index, family_index in plan:
            self._hash_index[cell_index] = family_index + 1
        last_cell = plan[-1][0]
        self._endbit[last_cell] = True
        self._inserted_keys += 1
        return True

    def can_insert(self, key: Key, selection: Sequence[int]) -> bool:
        """Return True if :meth:`try_insert` would succeed, without committing."""
        if not self.storable(selection):
            return False
        return self._search_chain(key, list(selection)) is not None

    def _search_chain(
        self, key: Key, selection: List[int]
    ) -> Optional[List[Tuple[int, int]]]:
        """Depth-first search for a placement order completing the chain.

        Returns a list of ``(cell_index, family_index)`` assignments covering
        every member of ``selection``, or ``None`` if no order works.
        """
        first = self._first_cell(key)
        return self._extend_chain(key, first, frozenset(selection), [])

    def _extend_chain(
        self,
        key: Key,
        cell_index: int,
        remaining: frozenset,
        assigned: List[Tuple[int, int]],
    ) -> Optional[List[Tuple[int, int]]]:
        if not remaining:
            return assigned
        # A cell may appear at most once per chain: revisiting means failure
        # because its stored hash is already consumed by this chain.
        if any(cell_index == prior_cell for prior_cell, _ in assigned):
            return None
        stored = self._hash_index[cell_index]
        if stored != 0:
            family_index = stored - 1
            if family_index not in remaining:
                return None
            # Case 2: the cell already stores one of the pending functions.
            next_cell = self._next_cell(key, family_index)
            return self._extend_chain(
                key,
                next_cell,
                remaining - {family_index},
                assigned + [(cell_index, family_index)],
            )
        # Case 1: empty cell — try each pending function, preferring the order
        # that is most likely to reuse already-populated downstream cells.
        candidates = sorted(
            remaining,
            key=lambda idx: (self.is_empty_cell(self._next_cell(key, idx)), idx),
        )
        for family_index in candidates:
            next_cell = self._next_cell(key, family_index)
            result = self._extend_chain(
                key,
                next_cell,
                remaining - {family_index},
                assigned + [(cell_index, family_index)],
            )
            if result is not None:
                return result
        return None

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #
    def query(self, key: Key, k: int) -> Optional[List[int]]:
        """Retrieve the customised hash selection for ``key``.

        Returns the list of ``k`` family indexes if the chain completes with a
        set ``endbit``, otherwise ``None`` (meaning the key should fall back to
        the initial selection ``H0``).  As in the paper, a non-inserted key may
        occasionally receive a spurious selection (the HashExpressor's own
        small false-positive rate); the two-round HABF query absorbs this.
        """
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        cell_index = self._first_cell(key)
        selection: List[int] = []
        for _ in range(k):
            stored = self._hash_index[cell_index]
            if stored == 0:
                return None
            family_index = stored - 1
            selection.append(family_index)
            last_cell = cell_index
            cell_index = self._next_cell(key, family_index)
        if not self._endbit[last_cell]:
            return None
        if len(set(selection)) != len(selection):
            # A chain that revisits a hash cannot belong to an inserted key.
            return None
        return selection

    def query_many_batch(self, batch: "vec.KeyBatch", k: int, parts=None):
        """Vector form of :meth:`query` over an encoded batch.

        Walks all chains in lock-step: one iteration per chain position, each
        doing whole-batch array reads of the cell table plus one row-exact
        hash per family index for the next-cell addresses (only the chains
        still alive, and only the rows each index serves, are hashed).
        Returns ``(selections, valid)`` where ``selections`` is an ``(n, k)``
        int64 matrix and ``valid`` a bool vector — row ``r`` is meaningful
        only where ``valid[r]`` is True; everywhere else the key falls back
        to ``H0`` (the scalar ``None``).  On a :meth:`stack`, ``parts[r]``
        names the part row ``r`` walks.  Requires numpy (callers gate on
        the engine).
        """
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        from repro.core.batch import member_hashes

        np = vec.numpy_or_none()
        hash_index, endbit, part_base, part_cells = self._cell_arrays()
        n = len(batch)
        rows = np.arange(n)
        if parts is None:
            parts = np.zeros(n, dtype=np.intp)
        base, cells = part_base[parts], part_cells[parts]
        cell = (_UNIFIED_HASH.hash_rows(batch, rows) % cells).astype(np.int64) + base
        alive = np.ones(n, dtype=bool)
        selections = np.zeros((n, k), dtype=np.int64)
        for step in range(k):
            stored = hash_index[cell]
            alive &= stored != 0
            family_index = np.maximum(stored - 1, 0)
            selections[:, step] = family_index
            if step + 1 < k:
                live = np.flatnonzero(alive)
                if not live.size:
                    break
                # Only the chains still alive need their next cell hashed.
                hashed = member_hashes(self._family, batch, live, family_index[live])
                cell[live] = (hashed % cells[live]).astype(np.int64) + base[live]
        valid = alive & endbit[cell]
        if k > 1:
            ordered = np.sort(selections, axis=1)
            # A chain that revisits a hash cannot belong to an inserted key.
            valid &= ~(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        return selections, valid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"HashExpressor(cells={self._num_cells}, occupied={stats.occupied_cells}, "
            f"keys={self._inserted_keys})"
        )
