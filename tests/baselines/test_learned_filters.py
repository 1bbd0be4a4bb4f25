"""Unit tests for the learned filters: LBF, SLBF and Ada-BF."""

from __future__ import annotations

import pytest


from repro.baselines.learned.adabf import AdaptiveLearnedBloomFilter
from repro.baselines.learned.lbf import LearnedBloomFilter
from repro.baselines.learned.slbf import SandwichedLearnedBloomFilter
from repro.errors import ConfigurationError, ConstructionError
from repro.metrics.fpr import false_positive_rate

ALL_LEARNED = [LearnedBloomFilter, SandwichedLearnedBloomFilter, AdaptiveLearnedBloomFilter]


@pytest.fixture(scope="session")
def built_learned(small_shalla):
    """Build each learned filter once on the shared Shalla-like dataset."""
    total_bits = int(10 * small_shalla.num_positives)
    return {
        cls.algorithm_name: cls.build(
            positives=small_shalla.positives,
            negatives=small_shalla.negatives,
            total_bits=total_bits,
            seed=4,
        )
        for cls in ALL_LEARNED
    }


class TestConstructionValidation:
    @pytest.mark.parametrize("cls", ALL_LEARNED)
    def test_total_bits_must_be_positive(self, cls):
        with pytest.raises(ConfigurationError):
            cls(total_bits=0)

    @pytest.mark.parametrize("cls", ALL_LEARNED)
    def test_build_requires_both_classes(self, cls):
        with pytest.raises(ConstructionError):
            cls.build(positives=[], negatives=["n"], total_bits=1000)
        with pytest.raises(ConstructionError):
            cls.build(positives=["p"], negatives=[], total_bits=1000)

    @pytest.mark.parametrize("cls", ALL_LEARNED)
    def test_query_before_build_rejected(self, cls):
        filt = cls(total_bits=1000)
        with pytest.raises(ConstructionError):
            filt.contains("anything")

    def test_adabf_group_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveLearnedBloomFilter(total_bits=1000, num_groups=1)


class TestZeroFalseNegatives:
    @pytest.mark.parametrize("name", ["LBF", "SLBF", "Ada-BF"])
    def test_all_positives_found(self, built_learned, small_shalla, name):
        filt = built_learned[name]
        missing = [key for key in small_shalla.positives if key not in filt]
        assert not missing, f"{name} produced {len(missing)} false negatives"


class TestAccuracy:
    @pytest.mark.parametrize("name", ["LBF", "SLBF", "Ada-BF"])
    def test_fpr_is_bounded(self, built_learned, small_shalla, name):
        fpr = false_positive_rate(built_learned[name], small_shalla.negatives)
        assert fpr < 0.25

    def test_structured_keys_help_lbf(self, small_shalla, small_ycsb):
        """The classifier should do better on Shalla-like keys than YCSB-like keys."""
        bits = 9
        shalla_lbf = LearnedBloomFilter.build(
            small_shalla.positives,
            small_shalla.negatives,
            total_bits=bits * small_shalla.num_positives,
            seed=4,
        )
        ycsb_lbf = LearnedBloomFilter.build(
            small_ycsb.positives,
            small_ycsb.negatives,
            total_bits=bits * small_ycsb.num_positives,
            seed=4,
        )
        shalla_fpr = false_positive_rate(shalla_lbf, small_shalla.negatives)
        ycsb_fpr = false_positive_rate(ycsb_lbf, small_ycsb.negatives)
        assert shalla_fpr <= ycsb_fpr + 0.02


class TestStructure:
    def test_lbf_exposes_threshold_and_backup(self, built_learned):
        lbf = built_learned["LBF"]
        assert 0.0 <= lbf.threshold <= 1.0
        assert lbf.model.is_trained
        assert lbf.size_in_bits() > 0

    def test_slbf_has_initial_filter(self, built_learned):
        slbf = built_learned["SLBF"]
        assert slbf.initial is not None
        assert slbf.initial.num_items > 0
        assert slbf.size_in_bits() > slbf.model.size_in_bits()

    def test_adabf_groups_are_monotonic(self, built_learned):
        adabf = built_learned["Ada-BF"]
        hashes = adabf.group_hashes
        assert len(hashes) == 4
        assert all(a >= b for a, b in zip(hashes, hashes[1:]))
        assert len(adabf.thresholds) == 3

    @pytest.mark.parametrize("name", ["LBF", "SLBF", "Ada-BF"])
    def test_size_accounting(self, built_learned, name):
        filt = built_learned[name]
        assert filt.size_in_bytes() == (filt.size_in_bits() + 7) // 8
