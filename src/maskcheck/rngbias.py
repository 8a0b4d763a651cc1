"""Residue bias of a bounded RNG reduced modulo q.

A k-bit generator produces N = 2^k equiprobable values; reducing them mod q
is only uniform when q divides N.  Otherwise the low residues are hit one
extra time.  A profile is just (N, q): its counts follow in closed form as
at most two runs of equal counts, its least and greatest counts are the
universal bounds floor(N/q) <= count(r) <= ceil(N/q), and their ratio is the
bias.  `verify_bounds`, the one reader of the runs, confirms them for every
q and N by the division floor((N-1-r)/q) + 1 at both ends of each run.

The flagship instance: a 12-bit RNG (N = 4096) against q = 3329 gives
count(0) = 2, count(767) = 1 and a bias ratio of exactly 2.  The module
reports bias; it never judges how much bias is tolerable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import _integer

# brute_force_counts iterates all N values; keep it desk-scale.
BRUTE_FORCE_LIMIT = 1 << 26

# `counts` expands to one int per residue, so q stays desk-scale (ML-DSA's
# 8380417 fits); both caps are the CLI's documented input contract.
PROFILE_MAX_Q = 1 << 24
PROFILE_MAX_N = (1 << 63) - 1


class BiasProfile(NamedTuple):
    """Exact residue counts of {0, ..., N-1} reduced mod q: writing
    N = a*q + b, residues below b are hit a+1 times and the rest a times.

    `ratio` is max_count/min_count as an exact rational, or None when
    min_count = 0 (N < q leaves residues unhit and the ratio is
    degenerate rather than infinite).
    """

    n_values: int
    q: int

    def count_runs(self) -> list[tuple[int, int, int]]:
        """(start, stop, count) for each run of residues of equal count, in order."""
        a, b = divmod(self.n_values, self.q)
        return [(0, b, a + 1), (b, self.q, a)] if b else [(0, self.q, a)]

    @property
    def counts(self) -> list[int]:  # all q counts in a new list, for printing
        return sum(([count] * (stop - start) for start, stop, count in self.count_runs()), [])

    @property
    def ratio(self) -> Fraction | None:
        return Fraction(self.max_count, self.min_count) if self.min_count else None

    @property
    def is_degenerate(self) -> bool:
        return self.ratio is None

    @property
    def divides_exactly(self) -> bool:
        return self.n_values % self.q == 0

    @property
    def floor_bound(self) -> int:
        return self.n_values // self.q

    @property
    def ceil_bound(self) -> int:
        return -(-self.n_values // self.q)

    min_count = floor_bound
    max_count = ceil_bound

    @property
    def ratio_str(self) -> str:
        if self.ratio is None:
            return "DEGENERATE"
        return f"{self.ratio.numerator}/{self.ratio.denominator}"


def bias_profile(n_values: int, q: int) -> BiasProfile:
    """The residue profile of {0, ..., n_values-1} mod q: the arguments,
    checked.  Its counts are read as runs; confirming them is
    verify_bounds' job."""
    n_values, q = _integer(n_values, "n_values"), _integer(q, "q")
    for name, value in (("n_values", n_values), ("q", q)):
        if value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if q > PROFILE_MAX_Q:
        raise ValueError(f"q={q} above the profile cap {PROFILE_MAX_Q} (one count per residue)")
    if n_values > PROFILE_MAX_N:
        raise ValueError(f"n_values={n_values} above {PROFILE_MAX_N} (int64 counts)")
    return BiasProfile(n_values, q)


def brute_force_counts(n_values: int, q: int):
    """Counts by direct iteration over every n < N, in numpy; the desk-scale oracle."""
    if n_values > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force capped at N <= {BRUTE_FORCE_LIMIT}, got {n_values}"
        )
    import numpy as np

    return np.bincount(np.arange(n_values, dtype=np.int64) % q, minlength=q)


def verify_bounds(profile: BiasProfile) -> bool:
    """Confirm that the non-empty runs of `profile.count_runs()` cover residues 0..q-1 in
    order and that every count is the one N forces, apart from the closed form:
    floor((N - 1 - r)/q) + 1, the number of n < N with n = r mod q.  This implies the
    sum, the floor/ceil bracket and equality when q divides N.  A False return means
    the library miscounted; tests treat it as fatal.
    """
    n, q, end = profile.n_values, profile.q, 0
    for start, stop, count in profile.count_runs():
        # The division never increases with r, so matching both ends means matching every
        # residue in between.  This is still a check of every residue, made by an argument.
        if start != end or stop <= start or any(
                count != (n - 1 - r) // q + 1 for r in (start, stop - 1)):
            return False
        end = stop
    return end == q
