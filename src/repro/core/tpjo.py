"""Two-Phase Joint Optimization (TPJO) — Section III-D of the paper.

TPJO builds the HABF: it inserts every positive key into the Bloom filter with
the initial hash selection ``H0``, then walks the negative keys that are still
false positives (the *collision keys*, ordered by descending cost) and tries
to re-map one of the positive keys responsible for each collision onto a
different hash function, so that the offending bit can be cleared.

Two runtime indexes drive the optimisation:

* ``V`` (Fig. 4) — for every Bloom-filter bit, whether it is mapped by positive
  keys at most once and, if exactly once, by which key.  Only such
  singly-mapped bits are safe to clear when their owner switches hashes.
* ``Γ`` (Fig. 5) — for every Bloom-filter bit, the set of currently-negative
  negative keys that map to it under ``H0``.  Before setting a new bit for an
  adjusted positive key, conflict detection (Algorithm 1) checks whether doing
  so would turn any of those protected keys into a new false positive, and if
  so whether the cost trade is worthwhile.

Phase-I selects the hash adjustment; phase-II attempts to insert the adjusted
selection into the HashExpressor.  The two phases are interleaved per
collision key, exactly as in Fig. 3: an adjustment is only committed when its
HashExpressor insertion succeeds.

The fast construction used by f-HABF (Section III-G) disables ``Γ``: no
conflict detection is performed, which speeds construction up at the price of
occasionally creating new (unprotected) collisions.

Construction runs on the batch engine: the H0
insertion and the negative-key classification each hash their whole key set
in one :func:`~repro.core.batch.positions_for_selection` pass, and candidate
evaluation gathers positions from cached per-family-index columns instead of
re-hashing the owner key per candidate.  The resulting filter is bit-for-bit
identical to the scalar construction (same shuffle order, same V/Γ updates,
same candidate ranking), pinned by
``tests/core/test_batch_build_equivalence.py``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.batch import positions_for_selection
from repro.core.bloom import BloomFilter
from repro.core.hash_expressor import HashExpressor
from repro.core.params import HABFParams
from repro.errors import ConfigurationError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key


@dataclass
class TPJOStats:
    """Bookkeeping produced by a TPJO run; useful for analysis and tests.

    Attributes:
        num_positive: Number of positive keys inserted.
        num_negative: Number of negative keys considered.
        initial_collisions: Collision keys found right after the H0 insertion.
        optimized: Collision keys successfully optimised (now negative).
        failed: Collision keys that could not be optimised.
        new_collisions: Negative keys that became collisions because of an
            adjustment and were re-enqueued.
        adjusted_positive_keys: Positive keys whose hash selection changed.
        expressor_insert_failures: Phase-II insertion attempts that failed.
        queue_passes: Total number of collision-queue pops processed.
    """

    num_positive: int = 0
    num_negative: int = 0
    initial_collisions: int = 0
    optimized: int = 0
    failed: int = 0
    new_collisions: int = 0
    adjusted_positive_keys: int = 0
    expressor_insert_failures: int = 0
    queue_passes: int = 0


@dataclass
class _Unit:
    """A unit of the V index: ``(singleflag, keyid)`` as in Fig. 4."""

    singleflag: bool = True
    keyid: Optional[Key] = None


class TPJOOptimizer:
    """Runs TPJO over a Bloom filter + HashExpressor pair.

    Args:
        bloom: The (empty) Bloom filter to populate.
        expressor: The (empty) HashExpressor to populate.
        params: Structural parameters (k, cell size, queue-pass bound, seed).
        use_gamma: Enable the ``Γ`` index and conflict detection (HABF);
            ``False`` reproduces the f-HABF fast construction.
    """

    def __init__(
        self,
        bloom: BloomFilter,
        expressor: HashExpressor,
        params: HABFParams,
        use_gamma: bool = True,
    ) -> None:
        self._bloom = bloom
        self._expressor = expressor
        self._params = params
        self._use_gamma = use_gamma
        self._rng = random.Random(params.seed)
        self._family = bloom.family
        self._h0: List[int] = bloom.initial_selection
        self._k = params.k
        if len(self._h0) != self._k:
            raise ConfigurationError("Bloom filter H0 size must equal params.k")
        # Per-positive-key current selection; keys absent from the map use H0.
        self._selections: Dict[Key, List[int]] = {}
        self._adjusted: Set[Key] = set()
        # V index: one unit per Bloom-filter bit.
        self._units: List[_Unit] = []
        # Γ index: bit position -> set of protected (currently negative) keys.
        self._gamma: Dict[int, Set[Key]] = {}
        # Cached H0 bit positions for negative keys.
        self._negative_positions: Dict[Key, Tuple[int, ...]] = {}
        self._costs: Dict[Key, float] = {}
        # Batch-construction state: the positives encoded once as a KeyBatch,
        # each key's batch row, and lazily materialised per-family-index
        # position columns.  Candidate evaluation then re-reads a cached
        # column instead of re-hashing the owner key per candidate.
        self._positive_batch = None
        self._positive_rows: Dict[Key, int] = {}
        self._family_columns: Dict[int, object] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def selection_for(self, key: Key) -> List[int]:
        """Return the current hash selection for a positive key (H0 if unadjusted)."""
        return list(self._selections.get(key, self._h0))

    @property
    def adjusted_keys(self) -> Set[Key]:
        """Positive keys whose hash selection was customised."""
        return set(self._adjusted)

    def optimize(
        self,
        positives: Sequence[Key],
        negatives: Sequence[Key],
        costs: Optional[Mapping[Key, float]] = None,
    ) -> TPJOStats:
        """Run the full construction: H0 insertion, then TPJO optimisation.

        Args:
            positives: The positive key set ``S``.
            negatives: The known negative key set ``O``.
            costs: Optional per-key misidentification costs ``Θ``; keys not in
                the mapping (and all keys when ``None``) default to cost 1.0.

        Returns:
            A :class:`TPJOStats` summary of the run.
        """
        stats = TPJOStats(num_positive=len(positives), num_negative=len(negatives))
        self._costs = dict(costs) if costs else {}

        self._insert_positives(positives)
        collision_keys = self._classify_negatives(negatives)
        stats.initial_collisions = len(collision_keys)

        queue = deque(
            sorted(collision_keys, key=lambda key: (-self._cost(key), repr(key)))
        )
        attempts: Dict[Key, int] = {}
        resolved: Set[Key] = set()
        failed: Set[Key] = set()

        while queue:
            eck = queue.popleft()
            stats.queue_passes += 1
            attempts[eck] = attempts.get(eck, 0) + 1
            if attempts[eck] > self._params.max_queue_passes:
                failed.add(eck)
                continue
            positions = self._negative_positions[eck]
            if not self._is_false_positive(positions):
                # Already fixed as a side effect of another adjustment.
                resolved.add(eck)
                failed.discard(eck)
                self._protect(eck)
                continue
            new_collisions = self._optimize_collision_key(eck, stats)
            if new_collisions is None:
                failed.add(eck)
                continue
            resolved.add(eck)
            failed.discard(eck)
            self._protect(eck)
            for newly_colliding in new_collisions:
                self._unprotect(newly_colliding)
                queue.append(newly_colliding)
                stats.new_collisions += 1

        stats.optimized = len(resolved)
        stats.failed = len(failed - resolved)
        stats.adjusted_positive_keys = len(self._adjusted)
        # The optimisation queue is drained; release the cached hash state so
        # the built filter does not pin the whole positive batch in memory.
        self._positive_batch = None
        self._positive_rows = {}
        self._family_columns = {}
        return stats

    # ------------------------------------------------------------------ #
    # Construction of the runtime indexes
    # ------------------------------------------------------------------ #
    def _insert_positives(self, positives: Sequence[Key]) -> None:
        self._units = [_Unit() for _ in range(self._bloom.num_bits)]
        order = list(positives)
        self._rng.shuffle(order)
        if not order:
            return
        # Bulk insert: hash the whole (shuffled) positive set under H0 in one
        # engine pass, commit the bits with one set_many, and walk the
        # resulting position lists to build the V index in the same order
        # the scalar ``add_with_selection`` loop would.  The KeyBatch is kept
        # for the rest of the run so candidate evaluation reuses its hash memo.
        batch = vec.KeyBatch(order)
        matrix = positions_for_selection(
            self._family, batch, self._h0, self._bloom.num_bits
        )
        self._bloom.add_positions_many(matrix, len(order))
        self._positive_batch = batch
        self._positive_rows = {key: row for row, key in enumerate(order)}
        for key, positions in zip(order, matrix.T.tolist()):
            for position in positions:
                self._record_positive_mapping(position, key)

    def _record_positive_mapping(self, position: int, key: Key) -> None:
        unit = self._units[position]
        if unit.singleflag and unit.keyid is None:
            unit.keyid = key
        elif unit.singleflag:
            unit.singleflag = False
        # else: already multi-mapped, nothing to do.

    def _classify_negatives(self, negatives: Sequence[Key]) -> List[Key]:
        position_lists = self._negative_position_lists(negatives)
        collisions: List[Key] = []
        for key, positions in zip(negatives, position_lists):
            self._negative_positions[key] = positions
            if self._is_false_positive(positions):
                collisions.append(key)
            else:
                self._protect(key)
        return collisions

    def _negative_position_lists(self, negatives: Sequence[Key]) -> List[Tuple[int, ...]]:
        """H0 positions of every negative key, from one engine pass."""
        if not negatives:
            return []
        matrix = positions_for_selection(
            self._family, vec.KeyBatch(negatives), self._h0, self._bloom.num_bits
        )
        return [tuple(column) for column in matrix.T.tolist()]

    def _protect(self, key: Key) -> None:
        """Register a currently-negative key in Γ so adjustments avoid breaking it."""
        if not self._use_gamma:
            return
        for position in self._negative_positions[key]:
            self._gamma.setdefault(position, set()).add(key)

    def _unprotect(self, key: Key) -> None:
        """Remove a key from Γ (it became a collision again and re-enters the queue)."""
        if not self._use_gamma:
            return
        for position in self._negative_positions[key]:
            bucket = self._gamma.get(position)
            if bucket is not None:
                bucket.discard(key)

    # ------------------------------------------------------------------ #
    # Per-collision-key optimisation (phase-I + phase-II)
    # ------------------------------------------------------------------ #
    def _optimize_collision_key(
        self, eck: Key, stats: TPJOStats
    ) -> Optional[List[Key]]:
        """Try to make ``eck`` test negative.

        Returns the list of protected keys that became new collisions as a
        side effect (possibly empty), or ``None`` if the optimisation failed.
        """
        positions = self._negative_positions[eck]
        xi_ck = self._single_mapped_units(positions)
        if not xi_ck:
            return None
        cost_eck = self._cost(eck)
        for position in xi_ck:
            owner = self._units[position].keyid
            assert owner is not None
            result = self._try_adjust_owner(owner, position, cost_eck, stats)
            if result is not None:
                return result
        return None

    def _single_mapped_units(self, positions: Iterable[int]) -> List[int]:
        """Return ξck: positions whose unit is singly-mapped by an unadjusted key."""
        found: List[int] = []
        seen: Set[int] = set()
        for position in positions:
            if position in seen:
                continue
            seen.add(position)
            unit = self._units[position]
            if unit.singleflag and unit.keyid is not None and unit.keyid not in self._adjusted:
                found.append(position)
        return found

    def _try_adjust_owner(
        self, owner: Key, old_position: int, cost_eck: float, stats: TPJOStats
    ) -> Optional[List[Key]]:
        """Phase-I candidate generation + phase-II HashExpressor insertion."""
        current = self._selections.get(owner, self._h0)
        owner_positions = [self._owner_position(owner, index) for index in current]
        try:
            slot = owner_positions.index(old_position)
        except ValueError:
            return None
        replaced_index = current[slot]

        candidates = self._candidate_adjustments(owner, current, slot, cost_eck)
        for new_position, new_index, victims in candidates:
            new_selection = list(current)
            new_selection[slot] = new_index
            if not self._expressor.try_insert(owner, new_selection):
                stats.expressor_insert_failures += 1
                continue
            self._commit_adjustment(
                owner, old_position, new_position, replaced_index, new_selection
            )
            return list(victims)
        return None

    def _candidate_adjustments(
        self, owner: Key, current: Sequence[int], slot: int, cost_eck: float
    ) -> List[Tuple[int, int, List[Key]]]:
        """Rank candidate hash replacements for ``owner``'s ``slot``.

        Returns tuples ``(new_bit_position, new_family_index, victims)`` in
        preference order: replacements landing on an already-set bit first
        (no new collisions possible), then replacements whose conflict
        detection finds no victims, then cost-favourable trades.
        """
        limit = self._expressor.max_storable_index
        in_use = set(current)
        free_candidates: List[Tuple[int, int]] = []
        clean_candidates: List[Tuple[int, int]] = []
        trade_candidates: List[Tuple[float, int, int, List[Key]]] = []
        for family_index in range(min(len(self._family), limit)):
            if family_index in in_use:
                continue
            new_position = self._owner_position(owner, family_index)
            if self._bloom.bits.test(new_position):
                free_candidates.append((new_position, family_index))
                continue
            if not self._use_gamma:
                # f-HABF: no conflict detection, accept blindly after the
                # free candidates.
                clean_candidates.append((new_position, family_index))
                continue
            victims = self._conflict_detection(new_position)
            if not victims:
                clean_candidates.append((new_position, family_index))
                continue
            victim_cost = sum(self._cost(victim) for victim in victims)
            gain = cost_eck - victim_cost
            if gain >= 0:
                trade_candidates.append((gain, new_position, family_index, victims))

        ranked: List[Tuple[int, int, List[Key]]] = []
        for new_position, family_index in free_candidates:
            ranked.append((new_position, family_index, []))
        for new_position, family_index in clean_candidates:
            ranked.append((new_position, family_index, []))
        for gain, new_position, family_index, victims in sorted(
            trade_candidates, key=lambda item: -item[0]
        ):
            ranked.append((new_position, family_index, victims))
        return ranked

    def _conflict_detection(self, new_position: int) -> List[Key]:
        """Algorithm 1: protected keys that would become false positives if
        ``new_position`` flipped from 0 to 1."""
        bucket = self._gamma.get(new_position)
        if not bucket:
            return []
        victims: List[Key] = []
        for protected in bucket:
            positions = self._negative_positions[protected]
            if all(
                position == new_position or self._bloom.bits.test(position)
                for position in positions
            ):
                victims.append(protected)
        return victims

    def _commit_adjustment(
        self,
        owner: Key,
        old_position: int,
        new_position: int,
        replaced_index: int,
        new_selection: List[int],
    ) -> None:
        """Apply an accepted adjustment to the Bloom filter and the V index."""
        self._bloom.clear_position(old_position)
        self._bloom.set_position(new_position)
        self._selections[owner] = new_selection
        self._adjusted.add(owner)
        # The old unit is no longer mapped by anything.
        self._units[old_position] = _Unit()
        # The new unit gains one mapping from the adjusted owner.
        self._record_positive_mapping(new_position, owner)

    # ------------------------------------------------------------------ #
    # Small helpers
    # ------------------------------------------------------------------ #
    def _owner_position(self, key: Key, family_index: int) -> int:
        """Bit position of a positive key under one family member.

        Candidate evaluation probes every family member for each collision
        owner; instead of re-hashing the owner per candidate, the position
        comes from a cached whole-batch column (``family[index]`` over all
        positives, materialised lazily and reusing the KeyBatch hash memo
        from the H0 insertion pass).  Falls back to the scalar hash for keys
        outside the batch.
        """
        if self._positive_batch is not None:
            row = self._positive_rows.get(key)
            if row is not None:
                column = self._family_columns.get(family_index)
                if column is None:
                    column = self._family[family_index].hash_many(
                        self._positive_batch, self._bloom.num_bits
                    )
                    self._family_columns[family_index] = column
                return int(column[row])
        return self._family[family_index](key, self._bloom.num_bits)

    def _cost(self, key: Key) -> float:
        return float(self._costs.get(key, 1.0))

    def _is_false_positive(self, positions: Iterable[int]) -> bool:
        return all(self._bloom.bits.test(position) for position in positions)
