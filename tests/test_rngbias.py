import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskcheck as mc


class TestKnownProfiles:
    def test_twelve_bit_rng_vs_3329(self):
        p = mc.bias_profile(4096, 3329)
        assert int(p.counts[0]) == 2
        assert int(p.counts[767]) == 1
        assert p.ratio == Fraction(2, 1)
        assert p.ratio_str == "2/1"
        assert not p.divides_exactly
        assert mc.verify_bounds(p)

    def test_exact_division(self):
        p = mc.bias_profile(8, 4)
        assert (p.counts == 2).all()
        assert p.ratio == Fraction(1, 1)
        assert p.divides_exactly
        assert mc.verify_bounds(p)

    # 2^16 and 2^16 + 1 sit on either side of the direct-tally limit on q.
    @pytest.mark.parametrize("q", [8380417, 1 << 16, (1 << 16) + 1])
    def test_n_below_q_is_degenerate(self, q):
        p = mc.bias_profile(4096, q)
        assert (p.counts[:4096] == 1).all()
        assert (p.counts[4096:] == 0).all()
        assert p.is_degenerate
        assert p.ratio is None and p.ratio_str == "DEGENERATE"
        assert mc.verify_bounds(p)

    def test_4096_mod_5(self):
        # 4096 = 5*819 + 1: residue 0 gets the extra hit
        p = mc.bias_profile(4096, 5)
        assert list(p.counts) == [820, 819, 819, 819, 819]
        assert mc.verify_bounds(p)

    @pytest.mark.parametrize("q", [3329, 1 << 16, (1 << 16) + 1])
    def test_multiple_of_large_q(self, q):
        p = mc.bias_profile(q * 7, q)
        assert (p.counts == 7).all()
        assert p.divides_exactly
        assert mc.verify_bounds(p)


def move_hit(src, dst):
    def edit(counts):
        counts[src] -= 1
        counts[dst] += 1
    return edit


class TestRejection:
    """verify_bounds refuses counts that differ from the exact form; each
    tampered profile keeps the sum, and the misplaced hits keep the bracket.
    A tampered profile's summaries are those of its own counts."""

    @pytest.mark.parametrize("q,n,edit", [
        # N = 2^23 + 50 leaves b = 58 at q = 100 and b = 50 at q = 2^17:
        # residue 0's extra hit moves to residue 58.
        (100, (1 << 23) + 50, move_hit(0, 58)),
        (1 << 17, (1 << 23) + 50, move_hit(0, 58)),
        # residue 0 above the ceiling and residue q - 1 below the floor
        (3329, 4096, move_hit(3328, 0)),
        (100, (1 << 23) + 50, move_hit(99, 0)),
        (1 << 17, (1 << 23) + 50, move_hit(99, 0)),
    ], ids=["misplaced-q100", "misplaced-q2^17", "outside-bracket-q3329",
            "outside-bracket-q100", "outside-bracket-q2^17"])
    def test_tampered_counts(self, q, n, edit):
        p = mc.bias_profile(n, q)
        assert mc.verify_bounds(p)
        counts = p.counts.copy()
        edit(counts)
        assert int(counts.sum()) == n
        tampered = dataclasses.replace(p, counts=counts)
        assert not mc.verify_bounds(tampered)
        low, high = int(counts.min()), int(counts.max())
        assert (tampered.min_count, tampered.max_count) == (low, high)
        assert tampered.ratio == (Fraction(high, low) if low else None)

    @pytest.mark.parametrize("q", [100, 1 << 17])
    def test_missing_residue(self, q):
        p = mc.bias_profile((1 << 23) + 50, q)
        assert not mc.verify_bounds(dataclasses.replace(p, counts=p.counts[:-1]))


class TestClosedFormAgainstBruteForce:
    def test_grid(self):
        for q in (1, 2, 3, 7, 64, 100):
            for n in (1, 2, q, q + 1, 3 * q - 1, 9999, 10_000):
                p = mc.bias_profile(n, q)
                assert np.array_equal(p.counts, mc.brute_force_counts(n, q))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10_000),
        q=st.integers(min_value=1, max_value=100),
    )
    def test_property(self, n, q):
        p = mc.bias_profile(n, q)
        assert np.array_equal(p.counts, mc.brute_force_counts(n, q))

    def test_brute_force_cap(self):
        with pytest.raises(ValueError, match="capped"):
            mc.brute_force_counts(1 << 30, 5)


class TestInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=1 << 40),
        q=st.integers(min_value=1, max_value=1 << 12),
    )
    def test_sum_and_bounds(self, n, q):
        p = mc.bias_profile(n, q)
        assert int(p.counts.sum()) == n
        lo, hi = n // q, -(-n // q)
        assert lo <= p.min_count and p.max_count <= hi
        if n % q == 0:
            assert p.min_count == p.max_count == n // q
        assert mc.verify_bounds(p)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc.bias_profile(0, 5)
        with pytest.raises(ValueError):
            mc.bias_profile(16, 0)

    def test_counts_are_read_only(self):
        p = mc.bias_profile(16, 4)
        with pytest.raises(ValueError):
            p.counts[0] = 99
