import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskcheck as mc
from maskcheck._steps import STEP_CELLS


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

    # 2^16 residues fill one step of verify_bounds; 2^16 + 1 spill into a second.
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


@dataclasses.dataclass(frozen=True, eq=False)
class GivenSteps(mc.BiasProfile):
    """A profile whose count source is the test's own (rows, counts) blocks."""
    blocks: list = None

    def count_steps(self):
        return iter(self.blocks)


def given_counts(p, counts):
    """p's own steps, with the counts taken from `counts` (short if it is)."""
    return GivenSteps(p.n_values, p.q, [(rows, counts[rows]) for rows, _ in p.count_steps()])


class TestRejection:
    """verify_bounds refuses count steps that differ from the exact form;
    each tampered source keeps the sum, and the misplaced hits keep the
    bracket."""

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
        assert mc.verify_bounds(p) and mc.verify_bounds(given_counts(p, p.counts))
        counts = p.counts
        edit(counts)
        assert int(counts.sum()) == n
        assert not mc.verify_bounds(given_counts(p, counts))

    @pytest.mark.parametrize("q", [100, 1 << 17])
    def test_missing_residue(self, q):
        """The last step is one count short, or is not yielded at all."""
        p = mc.bias_profile((1 << 23) + 50, q)
        assert not mc.verify_bounds(given_counts(p, p.counts[:-1]))
        assert not mc.verify_bounds(GivenSteps(p.n_values, q, list(p.count_steps())[:-1]))


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
        counts = p.counts
        assert int(counts.sum()) == n
        lo, hi = n // q, -(-n // q)
        assert (int(counts.min()), int(counts.max())) == (p.min_count, p.max_count)
        assert lo <= p.min_count and p.max_count <= hi
        if n % q == 0:
            assert p.min_count == p.max_count == n // q
        assert mc.verify_bounds(p)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc.bias_profile(0, 5)
        with pytest.raises(ValueError):
            mc.bias_profile(16, 0)


@pytest.mark.parametrize("q", [5, 3329, 1 << 16, 8380417])
def test_verify_bounds_peak_memory_is_a_few_steps(q):
    """A profile and its check hold a few steps of residues, never an
    array of N values or of q counts: at N = 2^22 numpy's traced peak
    stays within four int64 arrays of STEP_CELLS entries."""
    tracemalloc.start()
    try:
        ok = mc.verify_bounds(mc.bias_profile(1 << 22, q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak <= 4 * 8 * STEP_CELLS
