"""Sandwiched learned Bloom filter (Mitzenmacher, 2018).

SLBF adds an *initial* Bloom filter in front of the classifier: a query must
first pass the initial filter (which holds all positive keys), then the
classifier, and classifier misses fall through to a backup filter exactly as
in the plain LBF.  The initial filter bounds the damage a poorly-fitted model
can do — which is why the paper observes SLBF degrading much less than Ada-BF
on the unstructured YCSB keys.

The split of the non-model budget between the initial and backup filters is
chosen at build time by sweeping a small set of fractions and keeping the one
with the lowest estimated overall FPR.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.baselines.learned.lbf import _backup_fpr_estimate
from repro.baselines.learned.model import KeyScoreModel
from repro.core.batch import BatchMembership
from repro.core.bloom import BloomFilter, optimal_num_hashes
from repro.errors import ConfigurationError, ConstructionError
from repro.hashing.base import Key
from repro.hashing.double_hashing import DoubleHashFamily

_THRESHOLD_QUANTILES = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99)
_INITIAL_FRACTIONS = (0.3, 0.5, 0.7)


class SandwichedLearnedBloomFilter(BatchMembership):
    """Initial Bloom filter + classifier + backup Bloom filter.

    Args:
        total_bits: Space budget shared by the model and both Bloom filters.
        model: Optional pre-configured (untrained) scoring model.
        seed: Seed for the model and hashing.
    """

    algorithm_name = "SLBF"

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
        self._initial: Optional[BloomFilter] = None
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
    ) -> "SandwichedLearnedBloomFilter":
        """Train the model and assemble the sandwich under the space budget."""
        positives = list(positives)
        negatives = list(negatives)
        if not positives:
            raise ConstructionError("SLBF needs at least one positive key")
        if not negatives:
            raise ConstructionError("SLBF needs negative keys to train its model")
        if total_bits <= 0:
            total_bits = max(64, int(round(bits_per_key * len(positives))))
        slbf = cls(total_bits=total_bits, model=model, seed=seed)
        slbf._fit(positives, negatives)
        return slbf

    def _fit(self, positives: List[Key], negatives: List[Key]) -> None:
        self._model.fit(positives, negatives)
        positive_scores = self._model.scores(positives)
        negative_scores = self._model.scores(negatives)
        filter_bits = max(16, self._total_bits - self._model.size_in_bits())

        best = None
        for fraction in _INITIAL_FRACTIONS:
            initial_bits = max(8, int(filter_bits * fraction))
            backup_bits = max(8, filter_bits - initial_bits)
            initial_fpr = _backup_fpr_estimate(len(positives), initial_bits)
            for quantile in _THRESHOLD_QUANTILES:
                threshold = float(np.quantile(negative_scores, quantile))
                model_fpr = float((negative_scores >= threshold).mean())
                missed = int((positive_scores < threshold).sum())
                backup_fpr = _backup_fpr_estimate(missed, backup_bits)
                estimate = initial_fpr * (model_fpr + (1.0 - model_fpr) * backup_fpr)
                if best is None or estimate < best[0]:
                    best = (estimate, initial_bits, backup_bits, threshold)
        assert best is not None
        _, initial_bits, backup_bits, threshold = best
        self._threshold = threshold

        self._initial = self._build_bloom(positives, initial_bits)
        missed = [
            key for key, score in zip(positives, positive_scores) if score < threshold
        ]
        self._backup = self._build_bloom(missed, backup_bits) if missed else None
        self._built = True

    def _build_bloom(self, keys: List[Key], num_bits: int) -> BloomFilter:
        num_bits = max(8, num_bits)
        bits_per_key = num_bits / max(1, len(keys))
        num_hashes = optimal_num_hashes(bits_per_key)
        family = DoubleHashFamily(size=max(1, num_hashes), primitive="xxhash", seed=self._seed)
        return BloomFilter.from_keys(
            keys, num_bits=num_bits, num_hashes=num_hashes, family=family
        )

    # ------------------------------------------------------------------ #
    # Queries and accounting
    # ------------------------------------------------------------------ #
    def contains(self, key: Key) -> bool:
        """Initial filter, then classifier, then backup filter."""
        if not self._built:
            raise ConstructionError("SandwichedLearnedBloomFilter.build must be called first")
        if self._initial is not None and not self._initial.contains(key):
            return False
        if self._model.score(key) >= self._threshold:
            return True
        if self._backup is None:
            return False
        return self._backup.contains(key)

    def __contains__(self, key: Key) -> bool:
        return self.contains(key)

    def _contains_batch(self, batch):
        """Batch form of :meth:`contains`: initial filter, model, backup.

        Each stage only processes the keys still undecided by the previous
        one, so a batch pays the (comparatively expensive) model scoring only
        for keys that survive the initial vectorized Bloom round.
        """
        if not self._built:
            raise ConstructionError("SandwichedLearnedBloomFilter.build must be called first")
        answers = np.zeros(len(batch), dtype=bool)
        if self._initial is not None:
            passed = np.flatnonzero(self._initial._contains_batch(batch))
            if not passed.size:
                return answers
            survivors = batch.take(passed)
        else:
            passed = np.arange(len(batch))
            survivors = batch
        accepted = self._model.scores(survivors.keys) >= self._threshold
        answers[passed] = accepted
        if self._backup is not None:
            below = np.flatnonzero(~accepted)
            if below.size:
                answers[passed[below]] = self._backup._contains_batch(survivors.take(below))
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
    def initial(self) -> Optional[BloomFilter]:
        """The initial (pre-model) Bloom filter."""
        return self._initial

    @property
    def backup(self) -> Optional[BloomFilter]:
        """The backup (post-model) Bloom filter."""
        return self._backup

    def size_in_bits(self) -> int:
        """Serialized size: model + initial filter + backup filter."""
        initial = self._initial.size_in_bits() if self._initial else 0
        backup = self._backup.size_in_bits() if self._backup else 0
        return self._model.size_in_bits() + initial + backup

    def to_frame(self) -> bytes:
        """Serialize the whole sandwich (model + both filters) to one codec frame."""
        from repro.service import codec

        return codec.dumps(self)

    @classmethod
    def from_frame(cls, data: bytes) -> "SandwichedLearnedBloomFilter":
        """Revive a filter from a frame written by :meth:`to_frame`."""
        from repro.service import codec

        return codec.loads_as(data, cls)

    def size_in_bytes(self) -> int:
        """Serialized size in bytes (rounded up)."""
        return (self.size_in_bits() + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SandwichedLearnedBloomFilter(total_bits={self._total_bits}, "
            f"threshold={self._threshold:.3f})"
        )
