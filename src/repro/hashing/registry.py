"""The global hash-function registry mirroring the paper's Table II.

The paper draws the global set ``H`` of candidate hash functions from 22
classic string hashes.  :data:`GLOBAL_HASH_FAMILY` exposes exactly that set as
an ordered :class:`HashFamily`; HABF customises per-key hash subsets by
selecting indexes into this family and the HashExpressor stores those indexes
in its ``hashindex`` cells.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, UnknownHashError
from repro.hashing import vectorized as vec
from repro.hashing.base import HashFunction
from repro.hashing.primitives import PRIMITIVES

#: Alias kept for API symmetry with the paper's "Table II" phrasing.
HASH_PRIMITIVES = PRIMITIVES


def list_hash_names() -> List[str]:
    """Return the ordered list of primitive names available in Table II."""
    return list(PRIMITIVES)


def get_primitive(name: str) -> Callable[[bytes], int]:
    """Look up a raw primitive by name.

    Raises:
        UnknownHashError: if ``name`` is not one of the Table II primitives.
    """
    try:
        return PRIMITIVES[name]
    except KeyError:
        raise UnknownHashError(
            f"unknown hash primitive {name!r}; available: {', '.join(PRIMITIVES)}"
        ) from None


class HashFamily:
    """An ordered, indexable collection of :class:`HashFunction` objects.

    The family plays the role of the paper's global set ``H``: filters pick
    ``k``-sized subsets of it, HABF's HashExpressor stores indexes into it, and
    the initial selection ``H0`` is simply the first ``k`` members (or any
    explicit index list).

    Args:
        functions: The member hash functions, already carrying their indexes.
        name: Optional label used in reports.
    """

    def __init__(self, functions: Sequence[HashFunction], name: str = "H") -> None:
        if not functions:
            raise ConfigurationError("a HashFamily needs at least one hash function")
        indexes = [fn.index for fn in functions]
        if indexes != list(range(len(functions))):
            raise ConfigurationError("hash function indexes must be 0..n-1 in order")
        self._functions: List[HashFunction] = list(functions)
        self.name = name

    def __len__(self) -> int:
        return len(self._functions)

    def __iter__(self) -> Iterator[HashFunction]:
        return iter(self._functions)

    def __getitem__(self, index: int) -> HashFunction:
        try:
            return self._functions[index]
        except IndexError:
            raise UnknownHashError(
                f"hash index {index} out of range for family of size {len(self)}"
            ) from None

    def subset(self, indexes: Iterable[int]) -> List[HashFunction]:
        """Return the hash functions at ``indexes``, in the given order."""
        return [self[i] for i in indexes]

    def initial_selection(self, k: int) -> List[int]:
        """Return the default initial selection ``H0``: the first ``k`` indexes."""
        if not 1 <= k <= len(self):
            raise ConfigurationError(
                f"k must be between 1 and |H|={len(self)}, got {k}"
            )
        return list(range(k))

    def random_selection(self, k: int, rng: random.Random) -> List[int]:
        """Sample ``k`` distinct indexes uniformly at random."""
        if not 1 <= k <= len(self):
            raise ConfigurationError(
                f"k must be between 1 and |H|={len(self)}, got {k}"
            )
        return sorted(rng.sample(range(len(self)), k))

    def names(self) -> List[str]:
        """Return the member names in index order."""
        return [fn.name for fn in self._functions]

    def hash_many(self, keys, indexes: Optional[Sequence[int]] = None, modulus: int = 0):
        """Hash a whole batch of keys under several member functions at once.

        Returns a ``(len(indexes), len(keys))`` uint64 ndarray (one row per
        selected function), with the keys encoded once and shared across
        rows.  ``indexes`` defaults to the full family and ``modulus`` of 0
        means full 64-bit hashes.
        """
        chosen = list(indexes) if indexes is not None else list(range(len(self)))
        batch = vec.as_batch(keys)
        if not chosen:
            return np.zeros((0, len(batch)), dtype=np.uint64)
        return np.stack([self[i].hash_many(batch, modulus) for i in chosen])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashFamily(name={self.name!r}, size={len(self)})"


def build_family(
    names: Optional[Sequence[str]] = None,
    seed: int = 0,
    name: str = "H",
) -> HashFamily:
    """Build a :class:`HashFamily` from primitive names.

    Args:
        names: Primitive names to include, in order.  Defaults to all of
            Table II.  Repeating a name is allowed (each occurrence gets its
            own index and a distinct derived seed) which is how the
            BF(City64)/BF(XXH128) configurations of Fig. 14 are expressed:
            ``k`` copies of one primitive with different seeds.
        seed: Base seed.  Occurrence ``j`` of a repeated name receives seed
            ``seed + j`` so repeated primitives stay independent.
        name: Label for the family.
    """
    chosen = list(names) if names is not None else list_hash_names()
    functions: List[HashFunction] = []
    occurrences: dict = {}
    for index, primitive_name in enumerate(chosen):
        primitive = get_primitive(primitive_name)
        count = occurrences.get(primitive_name, 0)
        occurrences[primitive_name] = count + 1
        fn_seed = 0 if (seed == 0 and count == 0) else seed + count
        functions.append(
            HashFunction(name=primitive_name, index=index, primitive=primitive, seed=fn_seed)
        )
    return HashFamily(functions, name=name)


#: The default global family, matching the paper's Table II (22 functions).
GLOBAL_HASH_FAMILY = build_family(name="TableII")
