"""Immutable sorted runs (SSTables) with per-read cost accounting.

An :class:`SSTable` models a sorted file on disk: looking a key up requires a
"disk read" whose cost depends on the level the table lives at (deeper levels
are colder and more expensive, as in LevelDB).  A membership filter built by a
:class:`~repro.kvstore.filter_policy.FilterPolicy` guards the read: when the
filter says "absent" the read is skipped entirely.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.kvstore.filter_policy import FilterPolicy, NoFilterPolicy
from repro.kvstore.memtable import TOMBSTONE


@dataclass
class SSTableStats:
    """Per-table read accounting.

    Attributes:
        lookups: Total lookups routed to this table.
        filter_rejections: Lookups the filter answered "absent" (no read).
        reads: Simulated disk reads actually performed.
        useless_reads: Reads that found nothing (filter false positives).
    """

    lookups: int = 0
    filter_rejections: int = 0
    reads: int = 0
    useless_reads: int = 0


class SSTable:
    """An immutable sorted run of key/value pairs with a guarding filter.

    Args:
        entries: ``(key, value)`` pairs; keys must be unique.  Values may be
            the tombstone sentinel.
        level: LSM level this table belongs to (controls the read cost).
        read_cost: Simulated cost of one read from this table.
        filter_policy: Policy used to build the guarding filter.
        negatives: Known negative keys (workload hint for cost-aware filters).
        costs: Per-key access costs for the negative keys.
    """

    def __init__(
        self,
        entries: Sequence[Tuple[str, object]],
        level: int = 0,
        read_cost: float = 1.0,
        filter_policy: Optional[FilterPolicy] = None,
        negatives: Sequence[str] = (),
        costs: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not entries:
            raise ConfigurationError("an SSTable needs at least one entry")
        if read_cost < 0:
            raise ConfigurationError("read_cost must be non-negative")
        sorted_entries = sorted(entries, key=lambda item: item[0])
        keys = [key for key, _ in sorted_entries]
        if len(set(keys)) != len(keys):
            raise ConfigurationError("SSTable keys must be unique")
        self._keys: List[str] = keys
        self._values: List[object] = [value for _, value in sorted_entries]
        self.level = level
        self.read_cost = read_cost
        policy = filter_policy if filter_policy is not None else NoFilterPolicy()
        self._filter = policy.create_filter(keys, negatives=negatives, costs=costs)
        self.stats = SSTableStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._keys)

    @property
    def min_key(self) -> str:
        """Smallest key stored in this table."""
        return self._keys[0]

    @property
    def max_key(self) -> str:
        """Largest key stored in this table."""
        return self._keys[-1]

    def key_range_contains(self, key: str) -> bool:
        """Cheap range check used before consulting the filter."""
        return self.min_key <= key <= self.max_key

    def items(self) -> List[Tuple[str, object]]:
        """All entries in key order (tombstones included); used by compaction."""
        return list(zip(self._keys, self._values))

    @property
    def filter(self):
        """The guarding membership filter."""
        return self._filter

    # ------------------------------------------------------------------ #
    # Filter persistence
    # ------------------------------------------------------------------ #
    def dump_filter(self) -> bytes:
        """Serialize the guarding filter into one codec frame.

        A real LSM store persists the filter block inside the table file so
        reopening the database does not rebuild every filter; this is that
        path, built on :mod:`repro.service.codec`.
        """
        from repro.service import codec

        return codec.dumps(self._filter)

    def restore_filter(self, frame: bytes) -> None:
        """Replace the guarding filter with one decoded from ``frame``.

        The restored filter must still answer "present" for every key this
        table holds — restoring a filter built for a different table would
        silently reintroduce false negatives, so that is checked here.

        Raises:
            CodecError: if the frame is corrupt or the decoded filter misses
                any of this table's keys.
        """
        from repro.errors import CodecError
        from repro.service import codec

        candidate = codec.loads(frame)
        contains = getattr(candidate, "contains", None)
        if contains is None:
            raise CodecError(
                f"decoded frame holds {type(candidate).__name__}, which is not "
                "a membership filter"
            )
        missing = sum(1 for key in self._keys if not contains(key))
        if missing:
            raise CodecError(
                f"restored filter misses {missing} of {len(self._keys)} table keys; "
                "it was not built for this table"
            )
        self._filter = candidate

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Tuple[bool, Optional[object], float]:
        """Look up ``key``.

        Returns ``(found, value, io_cost)`` where ``io_cost`` is the simulated
        cost paid by this lookup (0.0 when the filter rejected the key).
        Tombstoned keys return ``(True, None, cost)``.
        """
        self.stats.lookups += 1
        if not self.key_range_contains(key):
            return False, None, 0.0
        if not self._filter.contains(key):
            self.stats.filter_rejections += 1
            return False, None, 0.0
        self.stats.reads += 1
        return self._read(key)

    def _read(self, key: str) -> Tuple[bool, Optional[object], float]:
        """The simulated disk read itself (cost already committed)."""
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            value = self._values[index]
            if value is TOMBSTONE:
                return True, None, self.read_cost
            return True, value, self.read_cost
        self.stats.useless_reads += 1
        return False, None, self.read_cost

    def get_many(self, keys: Sequence[str]) -> List[Tuple[bool, Optional[object], float]]:
        """Batch form of :meth:`get`, in input order.

        The guarding filter answers all in-range keys with **one**
        ``contains_many`` call (the batch engine's array program), so a
        multi-key read pays the filter's per-batch cost once instead of per
        key.  Per-key results and statistics are identical to looping
        :meth:`get`.
        """
        keys = list(keys)
        results: List[Tuple[bool, Optional[object], float]] = [
            (False, None, 0.0)
        ] * len(keys)
        self.stats.lookups += len(keys)
        in_range = [
            position for position, key in enumerate(keys) if self.key_range_contains(key)
        ]
        if not in_range:
            return results
        contains_many = getattr(self._filter, "contains_many", None)
        if contains_many is not None:
            flags = contains_many([keys[position] for position in in_range])
        else:
            flags = [self._filter.contains(keys[position]) for position in in_range]
        for position, flag in zip(in_range, flags):
            if not flag:
                self.stats.filter_rejections += 1
                continue
            self.stats.reads += 1
            results[position] = self._read(keys[position])
        return results
