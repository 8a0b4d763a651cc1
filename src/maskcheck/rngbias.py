"""Residue bias of a bounded RNG reduced modulo q.

A k-bit generator produces N = 2^k equiprobable values; reducing them mod q
is only uniform when q divides N.  Otherwise the low residues are hit one
extra time.  A profile is just (N, q): its counts follow in closed form, a
step of residues at a time, its least and greatest counts are the universal
bounds floor(N/q) <= count(r) <= ceil(N/q), and their ratio is the bias.
`verify_bounds`, the one reader of every count, confirms them for every q
and N by the per-residue division floor((N-1-r)/q) + 1.

The flagship instance: a 12-bit RNG (N = 4096) against q = 3329 gives
count(0) = 2, count(767) = 1 and a bias ratio of exactly 2.  The module
reports bias; it never judges how much bias is tolerable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._steps import steps

# brute_force_counts iterates all N values; keep it desk-scale.
BRUTE_FORCE_LIMIT = 1 << 26

# verify_bounds checks one int64 count per residue, so q bounds its time
# (ML-DSA's 8380417 fits); N must keep every count within int64.
PROFILE_MAX_Q = 1 << 24
PROFILE_MAX_N = (1 << 63) - 1


@dataclass(frozen=True, eq=False)
class BiasProfile:
    """Exact residue counts of {0, ..., N-1} reduced mod q: writing
    N = a*q + b, residues below b are hit a+1 times and the rest a times.

    `ratio` is max_count/min_count as an exact rational, or None when
    min_count = 0 (N < q leaves residues unhit and the ratio is
    degenerate rather than infinite).
    """

    n_values: int
    q: int

    def count_steps(self):
        """Yield (rows, counts) for each step of residues, in order."""
        a, b = divmod(self.n_values, self.q)
        for _, rows in steps(1, self.q, 1):
            yield rows, (np.arange(rows.start, rows.stop) < b) + a

    @property
    def counts(self) -> np.ndarray:  # all q counts in a new array, for printing
        return np.concatenate([counts for _, counts in self.count_steps()])

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
    checked.  Its counts are made a step at a time whenever they are read;
    confirming them is verify_bounds' job."""
    if not isinstance(n_values, int) or n_values < 1:
        raise ValueError(f"n_values must be a positive integer, got {n_values!r}")
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    if q > PROFILE_MAX_Q:
        raise ValueError(f"q={q} above the profile cap {PROFILE_MAX_Q} (one count per residue)")
    if n_values > PROFILE_MAX_N:
        raise ValueError(f"n_values={n_values} above {PROFILE_MAX_N} (int64 counts)")
    return BiasProfile(n_values, q)


def brute_force_counts(n_values: int, q: int) -> np.ndarray:
    """Counts by direct iteration over every n < N; the desk-scale oracle."""
    if n_values > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force capped at N <= {BRUTE_FORCE_LIMIT}, got {n_values}"
        )
    return np.bincount(np.arange(n_values, dtype=np.int64) % q, minlength=q)


def verify_bounds(profile: BiasProfile) -> bool:
    """Confirm that `profile.count_steps()` covers residues 0..q-1 in order
    and that every count is the one N forces, apart from the closed form:
    floor((N - 1 - r)/q) + 1, the number of n < N with n = r mod q.  This
    implies the sum, the floor/ceil bracket and equality when q divides N.
    A False return means the library miscounted; tests treat it as fatal.
    """
    n, q, end = profile.n_values, profile.q, 0
    for rows, counts in profile.count_steps():
        r = np.arange(rows.start, rows.stop)
        if rows.start != end or not np.array_equal(counts, (n - 1 - r) // q + 1):
            return False
        end = rows.stop
    return end == q
