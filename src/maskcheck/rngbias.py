"""Residue bias of a bounded RNG reduced modulo q.

A k-bit generator produces N = 2^k equiprobable values; reducing them mod q
is only uniform when q divides N.  Otherwise the low residues are hit one
extra time.  This module computes the exact per-residue counts in closed
form (never by sampling), together with the universal floor/ceil bounds
floor(N/q) <= count(r) <= ceil(N/q) and the max/min bias ratio.
`verify_bounds` confirms the counts by a direct tally when q and N are
small, else by the per-residue division floor((N-1-r)/q) + 1.

The flagship instance: a 12-bit RNG (N = 4096) against q = 3329 gives
count(0) = 2, count(767) = 1 and a bias ratio of exactly 2.  The module
reports bias; it never judges how much bias is tolerable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._steps import steps

# brute_force_counts iterates all N values; keep it desk-scale.
BRUTE_FORCE_LIMIT = 1 << 26

# A profile holds one int64 count per residue: q is capped (ML-DSA's
# 8380417 fits) and N must keep every count within int64.
PROFILE_MAX_Q = 1 << 24
PROFILE_MAX_N = (1 << 63) - 1


@dataclass(frozen=True, eq=False)
class BiasProfile:
    """Exact residue counts of {0, ..., N-1} reduced mod q.

    `ratio` is max_count/min_count as an exact rational, or None when
    min_count = 0 (N < q leaves residues unhit and the ratio is
    degenerate rather than infinite).
    """

    n_values: int
    q: int
    counts: np.ndarray

    @cached_property
    def min_count(self) -> int:
        return int(self.counts.min())

    @cached_property
    def max_count(self) -> int:
        return int(self.counts.max())

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

    @property
    def ratio_str(self) -> str:
        if self.ratio is None:
            return "DEGENERATE"
        return f"{self.ratio.numerator}/{self.ratio.denominator}"


def bias_profile(n_values: int, q: int) -> BiasProfile:
    """Closed-form residue counts for {0, ..., n_values-1} mod q.

    Writing N = a*q + b, residues below b are hit a+1 times and the rest
    a times; this is floor((N-1-r)/q) + 1 without the per-residue division.
    Profile construction is one array write; confirming the actual array
    is verify_bounds' job.
    """
    if not isinstance(n_values, int) or n_values < 1:
        raise ValueError(f"n_values must be a positive integer, got {n_values!r}")
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    if q > PROFILE_MAX_Q:
        raise ValueError(f"q={q} above the profile cap {PROFILE_MAX_Q} (one count per residue)")
    if n_values > PROFILE_MAX_N:
        raise ValueError(f"n_values={n_values} above {PROFILE_MAX_N} (int64 counts)")
    a, b = divmod(n_values, q)
    counts = np.full(q, a, dtype=np.int64)
    counts[:b] += 1
    counts.setflags(write=False)
    return BiasProfile(n_values, q, counts)


def brute_force_counts(n_values: int, q: int) -> np.ndarray:
    """Counts by direct iteration over every n < N; the desk-scale oracle."""
    if n_values > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force capped at N <= {BRUTE_FORCE_LIMIT}, got {n_values}"
        )
    return np.bincount(np.arange(n_values, dtype=np.int64) % q, minlength=q)


# Profiles with q and N at most these are tallied by brute_force_counts.
DIRECT_SUMMATION_MAX_Q = 1 << 16
DIRECT_SUMMATION_MAX_N = 1 << 22


def verify_bounds(profile: BiasProfile) -> bool:
    """Confirm every count is the one N forces, apart from `bias_profile`'s
    closed form: a tally of all N values (`brute_force_counts`) when
    q <= DIRECT_SUMMATION_MAX_Q and N <= DIRECT_SUMMATION_MAX_N, else
    floor((N - 1 - r)/q) + 1 for each residue r, a step at a time.  Either
    implies the sum, the floor/ceil bracket and equality when q divides N.
    A False return means the library miscounted; tests treat it as fatal.
    """
    n, q, counts = profile.n_values, profile.q, profile.counts
    if counts.shape != (q,):
        return False
    if q <= DIRECT_SUMMATION_MAX_Q and n <= DIRECT_SUMMATION_MAX_N:
        return np.array_equal(counts, brute_force_counts(n, q))
    for _, rows in steps(1, q, 1):
        r = np.arange(rows.start, rows.stop)
        if not np.array_equal(counts[rows], (n - 1 - r) // q + 1):
            return False
    return True
