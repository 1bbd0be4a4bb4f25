"""Unit tests for the Xor filter baseline."""

from __future__ import annotations

import pytest

from repro.baselines.xor_filter import XorFilter, fingerprint_bits_for_budget
from repro.errors import ConfigurationError


def make_keys(prefix, count):
    return [f"{prefix}#{i}" for i in range(count)]


class TestConstruction:
    def test_needs_keys(self):
        with pytest.raises(ConfigurationError):
            XorFilter([], fingerprint_bits=8)

    def test_invalid_fingerprint_bits(self):
        with pytest.raises(ConfigurationError):
            XorFilter(["a"], fingerprint_bits=0)
        with pytest.raises(ConfigurationError):
            XorFilter(["a"], fingerprint_bits=33)

    def test_duplicates_are_deduplicated(self):
        xor = XorFilter(["a", "b", "a", "b", "c"], fingerprint_bits=8)
        assert xor.num_keys == 3
        assert "a" in xor and "b" in xor and "c" in xor

    def test_keys_with_one_encoding_are_deduplicated(self):
        # "a" and b"a" normalise to the same bytes and so to the same slots;
        # peeling must see them once or it can never succeed.
        keys = ["a", b"a"] + [f"k{i}" for i in range(100)]
        for xor in (XorFilter(keys), XorFilter.from_bits_per_key(keys, 10.0)):
            assert xor.num_keys == 101
            assert all(xor.contains_many(keys))
            assert all(xor.contains(key) for key in keys)

    @pytest.mark.parametrize("count", [1, 2, 10, 500, 3000])
    def test_various_sizes_build(self, count):
        keys = make_keys("k", count)
        xor = XorFilter(keys, fingerprint_bits=8)
        assert all(key in xor for key in keys)


class TestMembership:
    def test_no_false_negatives(self):
        keys = make_keys("member", 2000)
        xor = XorFilter(keys, fingerprint_bits=8)
        assert all(xor.contains(key) for key in keys)

    def test_fpr_close_to_analytic(self):
        keys = make_keys("member", 2000)
        others = make_keys("other", 4000)
        xor = XorFilter(keys, fingerprint_bits=8)
        fpr = sum(1 for key in others if key in xor) / len(others)
        # Analytic FPR is 2^-8 ≈ 0.39%; allow a factor ~4 of sampling noise.
        assert fpr < 4 * xor.expected_fpr()

    def test_larger_fingerprints_reduce_fpr(self):
        keys = make_keys("member", 1500)
        others = make_keys("other", 3000)
        small = XorFilter(keys, fingerprint_bits=4)
        large = XorFilter(keys, fingerprint_bits=12)
        fpr_small = sum(1 for key in others if key in small) / len(others)
        fpr_large = sum(1 for key in others if key in large) / len(others)
        assert fpr_large <= fpr_small


class TestAccounting:
    def test_size_in_bits(self):
        keys = make_keys("k", 100)
        xor = XorFilter(keys, fingerprint_bits=8)
        assert xor.size_in_bits() >= int(1.23 * 100) * 8
        assert xor.size_in_bytes() == (xor.size_in_bits() + 7) // 8

    def test_expected_fpr(self):
        xor = XorFilter(["a"], fingerprint_bits=10)
        assert xor.expected_fpr() == pytest.approx(2 ** -10)

    def test_fingerprint_bits_for_budget(self):
        assert fingerprint_bits_for_budget(10.0, 1000) == int(10 / 1.23 + 32 / 1000)
        with pytest.raises(ConfigurationError):
            fingerprint_bits_for_budget(0, 10)

    def test_from_bits_per_key(self):
        keys = make_keys("k", 1000)
        xor = XorFilter.from_bits_per_key(keys, 10.0)
        assert xor.fingerprint_bits == fingerprint_bits_for_budget(10.0, 1000)
        assert all(key in xor for key in keys)
