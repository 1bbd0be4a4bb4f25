"""Core data structures of the HABF reproduction.

This subpackage contains the paper's primary contribution:

* :class:`~repro.core.bitarray.BitArray` — the compact bit vector shared by
  every filter.
* :class:`~repro.core.bloom.BloomFilter` — the standard Bloom filter with a
  per-key hash-subset hook (the substrate HABF builds on).
* :class:`~repro.core.hash_expressor.HashExpressor` — the lightweight hash
  table storing customised hash selections (Fig. 2 of the paper).
* :class:`~repro.core.tpjo.TPJOOptimizer` — the Two-Phase Joint Optimization
  algorithm (Section III-D, Algorithm 1, Figs. 3–7).
* :class:`~repro.core.habf.HABF` — the full filter with the two-round query
  (Fig. 1, Section III-E) and its fast variant :class:`~repro.core.habf.FastHABF`.
* :class:`~repro.core.batch.BatchMembership` — the batch-membership engine
  mixin every filter shares: ``contains_many`` as one array program over a
  :class:`~repro.hashing.vectorized.KeyBatch`.
"""

from repro.core.batch import BatchMembership
from repro.core.bitarray import BitArray
from repro.core.bloom import BloomFilter, optimal_num_hashes
from repro.core.habf import HABF, FastHABF
from repro.core.hash_expressor import HashExpressor
from repro.core.params import HABFParams
from repro.core.tpjo import TPJOOptimizer, TPJOStats

__all__ = [
    "BatchMembership",
    "BitArray",
    "BloomFilter",
    "optimal_num_hashes",
    "HashExpressor",
    "HABF",
    "FastHABF",
    "HABFParams",
    "TPJOOptimizer",
    "TPJOStats",
]
