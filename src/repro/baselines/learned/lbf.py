"""Learned Bloom filter (Kraska et al., 2018).

Architecture: a classifier scores the queried key; scores at or above a
threshold ``τ`` are reported positive immediately, scores below ``τ`` fall
through to a *backup* Bloom filter that holds exactly the positive keys the
classifier misses (so the combination never produces a false negative).

The threshold is chosen at build time by sweeping quantiles of the negative
training scores and picking the value that minimises the estimated overall
FPR given the space left for the backup filter — the practical recipe used by
the learned-filter literature when a space budget (rather than a target FPR)
is fixed.
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

#: Candidate quantiles of the negative score distribution used to pick τ.
_THRESHOLD_QUANTILES = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99)


def _backup_fpr_estimate(num_keys: int, num_bits: int) -> float:
    """Analytic FPR of an optimally-tuned Bloom filter holding ``num_keys``."""
    if num_keys == 0:
        return 0.0
    if num_bits <= 0:
        return 1.0
    bits_per_key = num_bits / num_keys
    k = optimal_num_hashes(bits_per_key)
    return (1.0 - np.exp(-k * num_keys / num_bits)) ** k


class LearnedBloomFilter(BatchMembership):
    """Classifier + backup Bloom filter under a shared space budget.

    Args:
        total_bits: Space budget covering both the serialized model and the
            backup Bloom filter.
        model: Optional pre-configured (untrained) scoring model.
        seed: Seed forwarded to the model and hashing.
    """

    algorithm_name = "LBF"

    def __init__(
        self,
        total_bits: int,
        model: Optional[KeyScoreModel] = None,
        seed: int = 1,
    ) -> None:
        if total_bits <= 0:
            raise ConfigurationError("total_bits must be positive")
        self._total_bits = total_bits
        self._model = model if model is not None else KeyScoreModel(seed=seed)
        self._seed = seed
        self._threshold = 1.0
        self._backup: Optional[BloomFilter] = None
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
        model: Optional[KeyScoreModel] = None,
        seed: int = 1,
    ) -> "LearnedBloomFilter":
        """Train the model and assemble the filter under the space budget.

        ``costs`` is accepted for interface uniformity with the other filters
        but ignored — LBF is not cost-aware, which is one of the paper's
        points of comparison.
        """
        positives = list(positives)
        negatives = list(negatives)
        if not positives:
            raise ConstructionError("LBF needs at least one positive key")
        if not negatives:
            raise ConstructionError("LBF needs negative keys to train its model")
        if total_bits <= 0:
            total_bits = max(64, int(round(bits_per_key * len(positives))))
        lbf = cls(total_bits=total_bits, model=model, seed=seed)
        lbf._fit(positives, negatives)
        return lbf

    def _fit(self, positives: List[Key], negatives: List[Key]) -> None:
        self._model.fit(positives, negatives)
        positive_scores = self._model.scores(positives)
        negative_scores = self._model.scores(negatives)
        backup_bits = self.backup_bits
        self._threshold = self._choose_threshold(
            positive_scores, negative_scores, backup_bits
        )
        missed = [
            key for key, score in zip(positives, positive_scores) if score < self._threshold
        ]
        self._backup = self._build_backup(missed, backup_bits)
        self._built = True

    def _choose_threshold(
        self,
        positive_scores: np.ndarray,
        negative_scores: np.ndarray,
        backup_bits: int,
    ) -> float:
        best_threshold = float("inf")
        best_estimate = float("inf")
        for quantile in _THRESHOLD_QUANTILES:
            threshold = float(np.quantile(negative_scores, quantile))
            model_fpr = float((negative_scores >= threshold).mean())
            missed = int((positive_scores < threshold).sum())
            backup_fpr = _backup_fpr_estimate(missed, backup_bits)
            estimate = model_fpr + (1.0 - model_fpr) * backup_fpr
            if estimate < best_estimate:
                best_estimate = estimate
                best_threshold = threshold
        return best_threshold

    def _build_backup(self, missed: List[Key], backup_bits: int) -> Optional[BloomFilter]:
        if not missed:
            return None
        backup_bits = max(8, backup_bits)
        bits_per_key = backup_bits / len(missed)
        num_hashes = optimal_num_hashes(bits_per_key)
        family = DoubleHashFamily(size=max(1, num_hashes), primitive="xxhash", seed=self._seed)
        return BloomFilter.from_keys(
            missed, num_bits=backup_bits, num_hashes=num_hashes, family=family
        )

    # ------------------------------------------------------------------ #
    # Queries and accounting
    # ------------------------------------------------------------------ #
    def contains(self, key: Key) -> bool:
        """Score-then-backup membership test (no false negatives)."""
        if not self._built:
            raise ConstructionError("LearnedBloomFilter.build must be called first")
        if self._model.score(key) >= self._threshold:
            return True
        if self._backup is None:
            return False
        return self._backup.contains(key)

    def __contains__(self, key: Key) -> bool:
        return self.contains(key)

    def _contains_batch(self, batch):
        """Batch form of :meth:`contains`: one model pass, one backup probe.

        The classifier already scores whole batches in numpy; the engine adds
        the vectorized backup-Bloom round over just the below-threshold keys.
        """
        if not self._built:
            raise ConstructionError("LearnedBloomFilter.build must be called first")
        answers = self._model.scores(batch.keys) >= self._threshold
        if self._backup is None:
            return answers
        below = np.flatnonzero(~answers)
        if below.size:
            answers[below] = self._backup._contains_batch(batch.take(below))
        return answers

    @property
    def threshold(self) -> float:
        """The score threshold τ selected at build time."""
        return self._threshold

    @property
    def model(self) -> KeyScoreModel:
        """The trained scoring model."""
        return self._model

    @property
    def backup(self) -> Optional[BloomFilter]:
        """The backup Bloom filter (None when the model catches every positive)."""
        return self._backup

    @property
    def backup_bits(self) -> int:
        """Bits left for the backup filter after charging the model."""
        return max(8, self._total_bits - self._model.size_in_bits())

    def size_in_bits(self) -> int:
        """Serialized size: model plus backup filter."""
        backup = self._backup.size_in_bits() if self._backup else 0
        return self._model.size_in_bits() + backup

    def to_frame(self) -> bytes:
        """Serialize the whole filter (model + backup) to one codec frame."""
        from repro.service import codec

        return codec.dumps(self)

    @classmethod
    def from_frame(cls, data: bytes) -> "LearnedBloomFilter":
        """Revive a filter from a frame written by :meth:`to_frame`."""
        from repro.service import codec

        return codec.loads_as(data, cls)

    def size_in_bytes(self) -> int:
        """Serialized size in bytes (rounded up)."""
        return (self.size_in_bits() + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LearnedBloomFilter(total_bits={self._total_bits}, "
            f"threshold={self._threshold:.3f})"
        )
