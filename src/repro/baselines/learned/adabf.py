"""Adaptive learned Bloom filter (Ada-BF; Dai & Shrivastava, 2020).

Ada-BF keeps a single Bloom-filter bit array but varies the number of hash
probes per key according to the classifier score: keys the model is confident
about (high score) use few probes, keys it is unsure about use many.  Score
thresholds partition the score range into ``g`` groups with hash counts
``k_max .. k_min`` (the top group uses zero probes, i.e. the model's word is
taken directly).

Because the decision leans heavily on the score distribution, Ada-BF degrades
sharply when the key schema has no learnable structure — the behaviour the
paper highlights on the YCSB dataset.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.baselines.learned.model import KeyScoreModel
from repro.core.batch import BatchMembership
from repro.core.bloom import BloomFilter, optimal_num_hashes
from repro.errors import ConfigurationError, ConstructionError
from repro.hashing.base import Key
from repro.hashing.double_hashing import DoubleHashFamily


class AdaptiveLearnedBloomFilter(BatchMembership):
    """Score-bucketed Bloom filter with per-group hash counts.

    Args:
        total_bits: Space budget covering the model and the bit array.
        num_groups: Number of score groups ``g``.
        model: Optional pre-configured (untrained) scoring model.
        seed: Seed for the model and hashing.
    """

    algorithm_name = "Ada-BF"

    def __init__(
        self,
        total_bits: int,
        num_groups: int = 4,
        model: Optional[KeyScoreModel] = None,
        seed: int = 1,
    ) -> None:
        if total_bits <= 0:
            raise ConfigurationError("total_bits must be positive")
        if num_groups < 2:
            raise ConfigurationError("num_groups must be at least 2")
        self._total_bits = total_bits
        self._num_groups = num_groups
        self._model = model if model is not None else KeyScoreModel(seed=seed)
        self._seed = seed
        self._thresholds: List[float] = []
        self._group_hashes: List[int] = []
        self._bloom: Optional[BloomFilter] = None
        self._built = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        positives: Sequence[Key],
        negatives: Sequence[Key],
        costs: Optional[Mapping[Key, float]] = None,
        total_bits: int = 0,
        bits_per_key: float = 10.0,
        num_groups: int = 4,
        model: Optional[KeyScoreModel] = None,
        seed: int = 1,
    ) -> "AdaptiveLearnedBloomFilter":
        """Train the model and build the score-bucketed filter."""
        positives = list(positives)
        negatives = list(negatives)
        if not positives:
            raise ConstructionError("Ada-BF needs at least one positive key")
        if not negatives:
            raise ConstructionError("Ada-BF needs negative keys to train its model")
        if total_bits <= 0:
            total_bits = max(64, int(round(bits_per_key * len(positives))))
        adabf = cls(total_bits=total_bits, num_groups=num_groups, model=model, seed=seed)
        adabf._fit(positives, negatives)
        return adabf

    def _fit(self, positives: List[Key], negatives: List[Key]) -> None:
        self._model.fit(positives, negatives)
        positive_scores = self._model.scores(positives)

        # Group boundaries: quantiles of the positive score distribution so
        # every group holds a comparable share of the positive keys.
        quantiles = np.linspace(0.0, 1.0, self._num_groups + 1)[1:-1]
        self._thresholds = [float(np.quantile(positive_scores, q)) for q in quantiles]

        array_bits = max(16, self._total_bits - self._model.size_in_bits())
        bits_per_key = array_bits / max(1, len(positives))
        base_hashes = optimal_num_hashes(bits_per_key)
        # Hash counts decrease with the score group: least-confident group gets
        # the most probes, most-confident group gets a single probe.
        self._group_hashes = [
            max(1, base_hashes + (self._num_groups // 2) - group)
            for group in range(self._num_groups)
        ]
        max_hashes = max(self._group_hashes)
        family = DoubleHashFamily(size=max_hashes, primitive="xxhash", seed=self._seed)
        self._bloom = BloomFilter(
            num_bits=array_bits, num_hashes=max_hashes, family=family
        )
        # Bulk insert: bucket every positive by score group, then one batch
        # insert per group under that group's prefix selection — the build
        # twin of the grouped probes in `_contains_batch`.
        groups = self._groups_for_scores(positive_scores)
        for group in np.unique(groups):
            members = np.flatnonzero(groups == group)
            selection = list(range(self._group_hashes[int(group)]))
            self._bloom.add_many_with_selection(
                [positives[int(i)] for i in members], selection
            )
        self._built = True

    def _groups_for_scores(self, scores: np.ndarray) -> np.ndarray:
        """Score group of every entry; vector twin of :meth:`_group_of`.

        The thresholds are ascending quantiles, so "count of thresholds ≤
        score" (``searchsorted`` with ``side='right'``) equals the scalar
        walk.
        """
        groups = np.searchsorted(np.asarray(self._thresholds), scores, side="right")
        return np.minimum(groups, self._num_groups - 1)

    def _group_of(self, score: float) -> int:
        group = 0
        for threshold in self._thresholds:
            if score >= threshold:
                group += 1
            else:
                break
        return min(group, self._num_groups - 1)

    # ------------------------------------------------------------------ #
    # Queries and accounting
    # ------------------------------------------------------------------ #
    def contains(self, key: Key) -> bool:
        """Score the key, pick its group's hash count, probe the bit array."""
        if not self._built or self._bloom is None:
            raise ConstructionError("AdaptiveLearnedBloomFilter.build must be called first")
        score = self._model.score(key)
        group = self._group_of(score)
        selection = list(range(self._group_hashes[group]))
        return self._bloom.contains_with_selection(key, selection)

    def __contains__(self, key: Key) -> bool:
        return self.contains(key)

    def _contains_batch(self, batch):
        """Batch form of :meth:`contains`: score, bucket, grouped probes.

        Scores land in groups via one ``searchsorted`` (the thresholds are
        ascending quantiles, so "count of thresholds ≤ score" equals the
        scalar walk), then each group's keys share one vectorized Bloom probe
        under that group's prefix selection.
        """
        if not self._built or self._bloom is None:
            raise ConstructionError("AdaptiveLearnedBloomFilter.build must be called first")
        scores = self._model.scores(batch.keys)
        groups = self._groups_for_scores(scores)
        answers = np.zeros(len(batch), dtype=bool)
        for group in np.unique(groups):
            members = np.flatnonzero(groups == group)
            selection = list(range(self._group_hashes[int(group)]))
            answers[members] = self._bloom._probe_batch(batch.take(members), selection)
        return answers

    @property
    def model(self) -> KeyScoreModel:
        """The trained scoring model."""
        return self._model

    @property
    def thresholds(self) -> List[float]:
        """Score thresholds separating the groups."""
        return list(self._thresholds)

    @property
    def group_hashes(self) -> List[int]:
        """Hash count used by each score group."""
        return list(self._group_hashes)

    def size_in_bits(self) -> int:
        """Serialized size: model plus the shared bit array."""
        bloom = self._bloom.size_in_bits() if self._bloom else 0
        return self._model.size_in_bits() + bloom

    def to_frame(self) -> bytes:
        """Serialize the whole filter (model + grouped bit array) to one codec frame."""
        from repro.service import codec

        return codec.dumps(self)

    @classmethod
    def from_frame(cls, data: bytes) -> "AdaptiveLearnedBloomFilter":
        """Revive a filter from a frame written by :meth:`to_frame`."""
        from repro.service import codec

        return codec.loads_as(data, cls)

    def size_in_bytes(self) -> int:
        """Serialized size in bytes (rounded up)."""
        return (self.size_in_bits() + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveLearnedBloomFilter(total_bits={self._total_bits}, "
            f"groups={self._num_groups})"
        )
