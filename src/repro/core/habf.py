"""Hash Adaptive Bloom Filter (HABF) and its fast variant f-HABF.

A :class:`HABF` is the composition the paper's Fig. 1 shows: a standard Bloom
filter plus a :class:`~repro.core.hash_expressor.HashExpressor`, constructed
by the :class:`~repro.core.tpjo.TPJOOptimizer` from the positive keys, the
known negative keys and (optionally) per-key misidentification costs.

Queries follow the two-round pattern of Section III-E, which preserves the
zero-false-negative guarantee:

1. test the key with the initial hash selection ``H0``; if it hits, report
   *positive*;
2. otherwise ask the HashExpressor for a customised selection; if one is
   returned, test the key again with it and report the result, else report
   *negative*.

:class:`FastHABF` (the paper's f-HABF) trades accuracy for construction and
query speed by using Kirsch–Mitzenmacher double hashing and disabling the
``Γ`` conflict-detection index during construction.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from repro.core.batch import BatchMembership, member_hashes
from repro.core.bloom import BloomFilter
from repro.core.hash_expressor import HashExpressor
from repro.core.params import HABFParams
from repro.core.tpjo import TPJOOptimizer, TPJOStats
from repro.errors import ConfigurationError, ConstructionError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key
from repro.hashing.double_hashing import DoubleHashFamily
from repro.hashing.registry import GLOBAL_HASH_FAMILY, HashFamily

FamilyLike = Union[HashFamily, DoubleHashFamily]


class HABF(BatchMembership):
    """Hash Adaptive Bloom Filter (paper Sections III-C through III-E).

    The usual way to obtain one is :meth:`HABF.build`, which runs the full
    TPJO construction.  The resulting object supports ``key in habf`` with the
    two-round query and exposes the exact space split between its Bloom filter
    and HashExpressor halves.

    Args:
        params: Structural parameters (space budget, k, ∆, cell size, seed).
        family: Hash family to draw from; defaults to the Table II family.
        use_gamma: Whether TPJO should run conflict detection; ``False`` is the
            f-HABF fast construction.
    """

    #: Human-readable algorithm label used by the experiment reports.
    algorithm_name = "HABF"
    #: Cached batch program, set once the filter is built (see _probe_plan).
    _plan: Optional["HABFProbePlan"] = None

    def __init__(
        self,
        params: HABFParams,
        family: Optional[FamilyLike] = None,
        use_gamma: bool = True,
    ) -> None:
        self._params = params
        self._family: FamilyLike = family if family is not None else GLOBAL_HASH_FAMILY
        if params.k > len(self._family):
            raise ConfigurationError(
                f"k={params.k} exceeds the hash family size {len(self._family)}"
            )
        if params.bloom_bits <= 0:
            raise ConfigurationError("space budget leaves no room for the Bloom filter")
        self._use_gamma = use_gamma
        self._bloom = BloomFilter(
            num_bits=max(1, params.bloom_bits),
            num_hashes=params.k,
            family=self._family,
        )
        if params.num_cells > 0:
            self._expressor: Optional[HashExpressor] = HashExpressor(
                num_cells=params.num_cells,
                cell_hash_bits=params.cell_hash_bits,
                family=self._family,  # type: ignore[arg-type]
            )
        else:
            self._expressor = None
        self._stats: Optional[TPJOStats] = None
        self._built = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        positives: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
        params: Optional[HABFParams] = None,
        bits_per_key: float = 10.0,
        family: Optional[FamilyLike] = None,
        use_gamma: bool = True,
    ) -> "HABF":
        """Construct a HABF from key sets.

        Args:
            positives: The positive key set ``S`` (must be non-empty).
            negatives: The known negative key set ``O`` used to steer TPJO.
            costs: Optional per-key misidentification costs ``Θ``.
            params: Explicit structural parameters; if omitted they are derived
                from ``bits_per_key`` and ``len(positives)``.
            bits_per_key: Space budget used when ``params`` is omitted.
            family: Hash family override.
            use_gamma: Enable conflict detection (disable for f-HABF behaviour).
        """
        positives = list(positives)
        if not positives:
            raise ConstructionError("cannot build a HABF from an empty positive set")
        if params is None:
            params = HABFParams.from_bits_per_key(bits_per_key, len(positives))
        habf = cls(params=params, family=family, use_gamma=use_gamma)
        habf.fit(positives, negatives, costs)
        return habf

    def fit(
        self,
        positives: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
    ) -> TPJOStats:
        """Run the TPJO construction on this (empty) filter and return its stats."""
        if self._built:
            raise ConstructionError("this HABF has already been built")
        positives = list(positives)
        negatives = list(negatives)
        if not positives:
            raise ConstructionError("cannot build a HABF from an empty positive set")
        overlap = set(positives) & set(negatives)
        if overlap:
            raise ConstructionError(
                f"positive and negative key sets must be disjoint; "
                f"{len(overlap)} keys appear in both"
            )
        if self._expressor is None or not negatives:
            # Degenerate case (∆=0 or no negative information): plain Bloom
            # filter, bulk-inserted through the engine.
            self._bloom.add_many(positives)
            self._stats = TPJOStats(
                num_positive=len(positives), num_negative=len(negatives)
            )
        else:
            optimizer = TPJOOptimizer(
                bloom=self._bloom,
                expressor=self._expressor,
                params=self._params,
                use_gamma=self._use_gamma,
            )
            self._stats = optimizer.optimize(positives, negatives, costs)
        self._built = True
        return self._stats

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def contains(self, key: Key) -> bool:
        """Two-round membership test (zero false negatives by construction)."""
        if self._bloom.contains(key):
            return True
        if self._expressor is None:
            return False
        selection = self._expressor.query(key, self._params.k)
        if selection is None:
            return False
        return self._bloom.contains_with_selection(key, selection)

    def __contains__(self, key: Key) -> bool:
        return self.contains(key)

    def _contains_batch(self, batch):
        """Batch form of the two-round query: the one-filter :class:`HABFProbePlan`."""
        np = vec.numpy_or_none()
        n = len(batch)
        return self._probe_plan().contains(batch, np.arange(n), np.zeros(n, dtype=np.intp))

    def _probe_plan(self) -> "HABFProbePlan":
        """This filter's batch query program, built once the filter is built.

        A HABF has no ``add``, so after :meth:`fit` (or a codec decode) its
        bits and cells never change and the plan is kept; before that it is
        rebuilt per call.
        """
        plan = self._plan
        if plan is None:
            plan = HABFProbePlan([self])
            if self._built:
                self._plan = plan
        return plan

    def probe_plan_key(self) -> tuple:
        """Filters with equal keys can answer through one :class:`HABFProbePlan`.

        The key holds what the program shares across its filters: the hash
        family (by content — every f-HABF builds its own
        :class:`~repro.hashing.double_hashing.DoubleHashFamily`), ``k`` and
        ``H0``, plus the buffer a zero-copy filter's bits alias, so a fused
        plan indexes that shared mapping instead of copying it.
        """
        buffer = self._bloom.bits._buffer
        owner = id(buffer.obj) if isinstance(buffer, memoryview) else None
        walk_family = self._expressor._family if self._expressor else self._family
        return (
            _family_key(self._family),
            _family_key(walk_family),
            self._params.k,
            tuple(self._bloom.initial_selection),
            owner,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def params(self) -> HABFParams:
        """The structural parameters this filter was built with."""
        return self._params

    @property
    def bloom(self) -> BloomFilter:
        """The underlying standard Bloom filter."""
        return self._bloom

    @property
    def expressor(self) -> Optional[HashExpressor]:
        """The HashExpressor, or ``None`` when ∆ = 0."""
        return self._expressor

    @property
    def built(self) -> bool:
        """Whether :meth:`fit` has run (a built HABF never changes again)."""
        return self._built

    @property
    def construction_stats(self) -> Optional[TPJOStats]:
        """TPJO statistics from the build, or ``None`` before :meth:`fit`."""
        return self._stats

    def size_in_bits(self) -> int:
        """Total serialized size: Bloom-filter bits plus HashExpressor cells."""
        expressor_bits = self._expressor.size_in_bits() if self._expressor else 0
        return self._bloom.size_in_bits() + expressor_bits

    def size_in_bytes(self) -> int:
        """Total serialized size in bytes (rounded up)."""
        return (self.size_in_bits() + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cells = self._expressor.num_cells if self._expressor else 0
        return (
            f"{self.algorithm_name}(bloom_bits={self._bloom.num_bits}, "
            f"cells={cells}, k={self._params.k})"
        )


def _family_key(family: FamilyLike) -> tuple:
    """Content identity of a hash family: equal keys hash identically."""
    if isinstance(family, DoubleHashFamily):
        return ("double", family.primitive_name, family.seed)
    return ("table",) + tuple((fn.primitive, fn.seed) for fn in family)


def _bit_arena(bit_arrays):
    """One uint8 array holding every filter's bits, plus each one's byte offset.

    A lone filter probes its own buffer.  Zero-copy filters (bits that are
    :meth:`~repro.core.bitarray.BitArray.view` slices of one mapping, as
    :meth:`HABF.probe_plan_key` guarantees for a group) index that mapping
    itself, so replicas never privately copy shared bits.  Filters owning
    their bytes are laid end to end in a fresh array.
    """
    np = vec.numpy_or_none()
    views = [np.frombuffer(bits._buffer, dtype=np.uint8) for bits in bit_arrays]
    if len(views) == 1:
        return views[0], [0]
    buffer = bit_arrays[0]._buffer
    if isinstance(buffer, memoryview):
        arena = np.frombuffer(buffer.obj, dtype=np.uint8)
        start = arena.__array_interface__["data"][0]
        return arena, [view.__array_interface__["data"][0] - start for view in views]
    offsets = np.cumsum([0] + [view.size for view in views[:-1]])
    return np.concatenate(views), offsets


class HABFProbePlan:
    """The two-round HABF query (Section III-E) as one array program.

    A plan answers for one or more built HABFs that share a hash family,
    ``k`` and ``H0`` (see :meth:`HABF.probe_plan_key`): their Bloom bits sit
    in one arena and their HashExpressor cell tables in one
    :meth:`~repro.core.hash_expressor.HashExpressor.stack`, each filter (a
    *part*) at its own offset with its own modulus.  :meth:`contains` then
    runs one round-1 H0 probe, one lock-step chain walk and one round-2
    probe over every row of a window, each row addressed through its part —
    a sharded store answers all its HABF shards with one program instead of
    one per shard.  All hashing is row-exact
    (:func:`~repro.core.batch.member_hashes`), so a family index is hashed
    only for the rows that use it.  A lone HABF is the one-part plan.
    """

    def __init__(self, filters: Sequence[HABF]) -> None:
        np = vec.numpy_or_none()
        first = filters[0]
        self._family = first._family
        self._k = first._params.k
        self._selection = first._bloom.initial_selection
        blooms = [filt._bloom for filt in filters]
        self._bits, byte_offsets = _bit_arena([bloom.bits for bloom in blooms])
        self._bit_base = np.asarray(byte_offsets, dtype=np.uint64) * np.uint64(8)
        self._num_bits = np.asarray([bloom.num_bits for bloom in blooms], dtype=np.uint64)
        expressors = [filt._expressor for filt in filters]
        self._walks = np.asarray([e is not None for e in expressors], dtype=bool)
        if not self._walks.any():
            self._expressor = None
        elif len(expressors) == 1:
            self._expressor = expressors[0]
        else:
            self._expressor = HashExpressor.stack(expressors)

    def contains(self, batch, rows, parts):
        """Two-round verdicts for batch rows ``rows``; row ``i`` asks part ``parts[i]``.

        Round 1 probes ``H0``.  Only the first-round misses of parts with a
        HashExpressor (typically the negatives) are walked; the keys with a
        valid selection get the round-2 probe under it.  Bit-identical to
        each part's scalar ``contains``.
        """
        np = vec.numpy_or_none()
        answers = self._probe(batch, rows, parts, self._selection)
        if self._expressor is None:
            return answers
        missed = np.flatnonzero(~answers & self._walks[parts])
        if not missed.size:
            return answers
        selections, valid = self._expressor.query_many_batch(
            batch.take(rows[missed]), self._k, parts=parts[missed]
        )
        recovered = np.flatnonzero(valid)
        if recovered.size:
            rescued = missed[recovered]
            answers[rescued] = self._probe(
                batch, rows[rescued], parts[rescued], selections[recovered].T
            )
        return answers

    def _probe(self, batch, rows, parts, columns):
        """Bloom probe; column ``j`` hashes with ``columns[j]``.

        Each column is one family index for every row (``H0``) or a vector
        of per-row indexes (a decoded selection).  Rows drop out at their
        first zero bit, so later columns hash only the rows still alive.
        """
        np = vec.numpy_or_none()
        answers = np.ones(rows.size, dtype=bool)
        alive = np.arange(rows.size)
        num_bits, bit_base = self._num_bits[parts], self._bit_base[parts]
        for indexes in columns:
            if np.ndim(indexes):
                indexes = indexes[alive]
            hashed = member_hashes(self._family, batch, rows[alive], indexes)
            position = hashed % num_bits[alive] + bit_base[alive]
            byte = self._bits[(position >> np.uint64(3)).astype(np.intp)]
            hits = (byte >> (position & np.uint64(7)).astype(np.uint8)) & 1 != 0
            answers[alive[~hits]] = False
            alive = alive[hits]
            if not alive.size:
                break
        return answers


class FastHABF(HABF):
    """f-HABF: double hashing plus the Γ-free fast construction (Section III-G)."""

    algorithm_name = "f-HABF"

    def __init__(
        self,
        params: HABFParams,
        family: Optional[FamilyLike] = None,
        base_primitive: str = "xxhash",
    ) -> None:
        if family is None:
            family = DoubleHashFamily(
                size=min(len(GLOBAL_HASH_FAMILY), max(params.k, params.max_hash_functions)),
                primitive=base_primitive,
                seed=params.seed,
            )
        super().__init__(params=params, family=family, use_gamma=False)

    @classmethod
    def build(
        cls,
        positives: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
        params: Optional[HABFParams] = None,
        bits_per_key: float = 10.0,
        family: Optional[FamilyLike] = None,
        use_gamma: bool = False,
        base_primitive: str = "xxhash",
    ) -> "FastHABF":
        """Construct an f-HABF; mirrors :meth:`HABF.build`."""
        positives = list(positives)
        if not positives:
            raise ConstructionError("cannot build a HABF from an empty positive set")
        if params is None:
            params = HABFParams.from_bits_per_key(bits_per_key, len(positives))
        habf = cls(params=params, family=family, base_primitive=base_primitive)
        habf.fit(positives, negatives, costs)
        return habf
