import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskcheck as mc


class TestKnownProfiles:
    def test_twelve_bit_rng_vs_3329(self):
        p = mc.bias_profile(4096, 3329)
        assert p.counts[0] == 2
        assert p.counts[767] == 1
        assert p.ratio == Fraction(2, 1)
        assert p.ratio_str == "2/1"
        assert not p.divides_exactly
        assert mc.verify_bounds(p)

    def test_exact_division(self):
        p = mc.bias_profile(8, 4)
        assert p.counts == [2] * 4
        assert p.ratio == Fraction(1, 1)
        assert p.divides_exactly
        assert mc.verify_bounds(p)

    @pytest.mark.parametrize("q", [8380417, 1 << 16, (1 << 16) + 1])
    def test_n_below_q_is_degenerate(self, q):
        p = mc.bias_profile(4096, q)
        assert p.count_runs() == [(0, 4096, 1), (4096, q, 0)]
        assert p.counts == [1] * 4096 + [0] * (q - 4096)
        assert p.is_degenerate
        assert p.ratio is None and p.ratio_str == "DEGENERATE"
        assert mc.verify_bounds(p)

    def test_4096_mod_5(self):
        # 4096 = 5*819 + 1: residue 0 gets the extra hit
        p = mc.bias_profile(4096, 5)
        assert p.count_runs() == [(0, 1, 820), (1, 5, 819)]
        assert p.counts == [820, 819, 819, 819, 819]
        assert mc.verify_bounds(p)

    @pytest.mark.parametrize("q", [3329, 1 << 16, (1 << 16) + 1])
    def test_multiple_of_large_q(self, q):
        p = mc.bias_profile(q * 7, q)
        assert p.count_runs() == [(0, q, 7)]
        assert p.counts == [7] * q
        assert p.divides_exactly
        assert mc.verify_bounds(p)


def move_hit(src, dst):
    def edit(counts):
        counts[src] -= 1
        counts[dst] += 1
    return edit


class GivenRuns(mc.BiasProfile):
    """A profile whose count source is the test's own (start, stop, count) runs."""

    def __new__(cls, n_values, q, runs):
        self = super().__new__(cls, n_values, q)
        self.runs = runs
        return self

    def count_runs(self):
        return self.runs


def given_counts(p, counts):
    """p with the runs of equal counts in `counts` (one per residue) as its runs."""
    runs = []
    for r, count in enumerate(counts):
        if runs and runs[-1][2] == count:
            runs[-1][1] = r + 1
        else:
            runs.append([r, r + 1, count])
    return GivenRuns(p.n_values, p.q, [tuple(run) for run in runs])


# Each edit of the true runs [(0, b, a + 1), (b, q, a)], N = a*q + b with b > 0.
TAMPERED_RUNS = {
    # the first run's count is right at its start only, the second's at its end only
    "first-run-end-off-by-one": lambda a, b, q: [(0, b + 1, a + 1), (b + 1, q, a)],
    "second-run-start-off-by-one": lambda a, b, q: [(0, b - 1, a + 1), (b - 1, q, a)],
    "first-count-off-by-one": lambda a, b, q: [(0, b, a + 2), (b, q, a)],
    "last-count-off-by-one": lambda a, b, q: [(0, b, a + 1), (b, q, a - 1)],
    # every count right at both ends of its run, but a residue counted twice or not at all,
    # or a run that covers none
    "overlap": lambda a, b, q: [(0, b, a + 1), (b, q, a), (q - 1, q, a)],
    "gap": lambda a, b, q: [(0, b, a + 1), (b + 1, q, a)],
    "gap-at-0": lambda a, b, q: [(1, b, a + 1), (b, q, a)],
    "backward": lambda a, b, q: [(0, b, a + 1), (b, q, a), (q, q - 2, a), (q - 2, q, a)],
    "empty": lambda a, b, q: [(0, b, a + 1), (b, q - 1, a), (q - 1, q - 1, a), (q - 1, q, a)],
}


class TestRejection:
    """verify_bounds refuses count runs that differ from the exact form;
    each tampered source of counts keeps the sum, and the misplaced hits
    keep the bracket."""

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
        assert sum(counts) == n
        assert not mc.verify_bounds(given_counts(p, counts))

    @pytest.mark.parametrize("kind", TAMPERED_RUNS)
    @pytest.mark.parametrize("q,n", [(100, (1 << 23) + 50), (1 << 17, (1 << 23) + 50),
                                     (3329, 4096)], ids=["q100", "q2^17", "q3329"])
    def test_tampered_runs(self, q, n, kind):
        p = mc.bias_profile(n, q)
        a, b = divmod(n, q)
        assert mc.verify_bounds(GivenRuns(n, q, p.count_runs()))
        assert not mc.verify_bounds(GivenRuns(n, q, TAMPERED_RUNS[kind](a, b, q)))

    @pytest.mark.parametrize("q", [100, 1 << 17])
    def test_missing_residue(self, q):
        """The last run stops one residue short of q, or is not given at all."""
        p = mc.bias_profile((1 << 23) + 50, q)
        assert not mc.verify_bounds(given_counts(p, p.counts[:-1]))
        assert not mc.verify_bounds(GivenRuns(p.n_values, q, p.count_runs()[:-1]))


class TestClosedFormAgainstBruteForce:
    def test_grid(self):
        for q in (1, 2, 3, 7, 64, 100):
            for n in (1, 2, q, q + 1, 3 * q - 1, 9999, 10_000):
                p = mc.bias_profile(n, q)
                assert p.counts == mc.brute_force_counts(n, q).tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10_000),
        q=st.integers(min_value=1, max_value=100),
    )
    def test_property(self, n, q):
        p = mc.bias_profile(n, q)
        assert p.counts == mc.brute_force_counts(n, q).tolist()

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
        assert sum(counts) == n
        lo, hi = n // q, -(-n // q)
        assert (min(counts), max(counts)) == (p.min_count, p.max_count)
        assert lo <= p.min_count and p.max_count <= hi
        if n % q == 0:
            assert p.min_count == p.max_count == n // q
        assert mc.verify_bounds(p)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc.bias_profile(0, 5)
        with pytest.raises(ValueError):
            mc.bias_profile(16, 0)


@pytest.mark.parametrize("q,n", [(5, 1 << 22), (3329, 1 << 22), (1 << 16, 1 << 22),
                                 (8380417, 1 << 22), (1 << 24, (1 << 63) - 1)])
def test_verify_bounds_peak_memory_is_constant(q, n):
    """A profile and its check hold its runs, never an array of N values or
    of q counts: the traced peak stays within 4 KiB whatever q and N."""
    tracemalloc.start()
    try:
        ok = mc.verify_bounds(mc.bias_profile(n, q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak <= 4096
