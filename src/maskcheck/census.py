"""Exhaustive verdict census over every Boolean wire function at small q.

A Boolean wire over Z_q x Z_q is a q^2-bit truth table, so the whole wire
space at modulus q is the integer range [0, 2^(q^2)).  At q = 5 that is
2^25 = 33,554,432 wires, which this module classifies in full.  The census
counts each verdict class and, crucially, re-verifies on every single wire
that value-independence implies a constant marginal histogram: the
`soundness_violations` counter must come back 0.

Encoding is normative so reports are comparable across implementations:
wire index i has bit (s0 * q + s1) as its output for share pair (s0, s1).

The hot loop never touches a dense table.  Value-independence of a packed
wire is a per-mask column test (all q bits at positions {s0*q + s1 : s0}
equal), and the marginal histogram reduces to popcounts over the q
"reparametrization diagonals" (cells with s0 + s1 = x mod q).  Both checks
run bit-parallel over numpy batches of wire indices; precomputed column
and diagonal masks keep modular arithmetic out of the loop entirely.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from math import comb
from multiprocessing import Pool

import numpy as np

from .wires import (
    VERDICT_BY_CODE,
    Verdict,
    WireFunction,
    _verdict_codes,
    classify,
    make_wire,
    marginal_table,
)

# Full enumeration is capped at q^2 <= 25 bits (q <= 5); one modulus up,
# the space has 2^36 wires and is out of desk scale.
MAX_CENSUS_Q = 5

DEFAULT_BATCH_SIZE = 1 << 20


def _column_masks(q: int) -> np.ndarray:
    """masks[s1] has a bit at (s0*q + s1) for every s0."""
    masks = np.zeros(q, dtype=np.uint32)
    for s1 in range(q):
        m = 0
        for s0 in range(q):
            m |= 1 << (s0 * q + s1)
        masks[s1] = m
    return masks


def _diagonal_masks(q: int) -> np.ndarray:
    """masks[x] has a bit at (s0*q + s1) for every pair with s0 + s1 = x mod q."""
    masks = np.zeros(q, dtype=np.uint32)
    for x in range(q):
        m = 0
        for s1 in range(q):
            m |= 1 << (((x - s1) % q) * q + s1)
        masks[x] = m
    return masks


def _check_q(q: int):
    if not 1 <= q <= MAX_CENSUS_Q:
        raise ValueError(
            f"exhaustive census supports 1 <= q <= {MAX_CENSUS_Q}, got {q}"
        )


def classify_packed(q: int, wires) -> tuple[np.ndarray, np.ndarray]:
    """Bit-parallel verdict predicates for a batch of packed wire indices.

    Returns (value_independent, constant_marginal) boolean arrays.
    """
    _check_q(q)
    w = np.asarray(wires, dtype=np.uint32)
    vi = np.ones(w.shape, dtype=bool)
    for m in _column_masks(q):
        bits = w & m
        vi &= (bits == 0) | (bits == m)
    diags = _diagonal_masks(q)
    first = np.bitwise_count(w & diags[0])
    cm = np.ones(w.shape, dtype=bool)
    for m in diags[1:]:
        cm &= np.bitwise_count(w & m) == first
    return vi, cm


def packed_verdict(q: int, wire_index: int) -> Verdict:
    """Verdict of one wire straight off the packed representation."""
    vi, cm = classify_packed(q, np.array([wire_index], dtype=np.uint32))
    return VERDICT_BY_CODE[_verdict_codes(q, vi, cm, f"packed wire {wire_index}")[0]]


def index_to_wire(q: int, wire_index: int) -> WireFunction:
    """Decode a packed wire index into a dense Boolean WireFunction."""
    _check_q(q)
    n = q * q
    if not 0 <= wire_index < (1 << n):
        raise ValueError(
            f"wire index {wire_index} out of range [0, 2^{n}) for q={q}"
        )
    table = [(wire_index >> pos) & 1 for pos in range(n)]
    return make_wire(q, table, alphabet_size=2)


def wire_to_index(w: WireFunction) -> int:
    """Inverse of index_to_wire for Boolean wires at census-scale q."""
    if w.alphabet_size != 2:
        raise ValueError("only Boolean wires have a packed index")
    _check_q(w.q)
    idx = 0
    for pos, bit in enumerate(w.table):
        idx |= int(bit) << pos
    return idx


@dataclass(frozen=True)
class CensusReport:
    q: int
    total_wires: int
    count_value_independent: int
    count_constant_marginal: int
    count_conservative: int
    count_non_constant: int
    soundness_violations: int
    wall_time_seconds: float

    def __post_init__(self):
        if self.count_constant_marginal + self.count_non_constant != self.total_wires:
            raise ValueError("census counts do not partition the wire space")
        if self.count_value_independent > self.count_constant_marginal:
            raise ValueError("more value-independent wires than constant-marginal ones")

    def to_dict(self, include_wall_time: bool = False) -> dict:
        doc = {
            "q": self.q,
            "total_wires": self.total_wires,
            "count_value_independent": self.count_value_independent,
            "count_constant_marginal": self.count_constant_marginal,
            "count_conservative": self.count_conservative,
            "count_non_constant": self.count_non_constant,
            "soundness_violations": self.soundness_violations,
        }
        if include_wall_time:
            doc["wall_time_seconds"] = self.wall_time_seconds
        return doc


def _count_range(args) -> tuple[int, int, int]:
    """Census counts over a contiguous index range [start, stop).

    Returns (n_value_independent, n_constant_marginal, n_violations);
    merging partial results is plain addition, so any partition of the
    full range yields identical totals.
    """
    q, start, stop, batch_size = args
    n_vi = n_cm = n_bad = 0
    for lo in range(start, stop, batch_size):
        hi = min(lo + batch_size, stop)
        batch = np.arange(lo, hi, dtype=np.uint32)
        vi, cm = classify_packed(q, batch)
        n_vi += int(vi.sum())
        n_cm += int(cm.sum())
        n_bad += int((vi & ~cm).sum())
    return n_vi, n_cm, n_bad


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_census(q: int, parallelism: int = 1,
               batch_size: int = DEFAULT_BATCH_SIZE) -> CensusReport:
    """Classify every Boolean wire at modulus q and tally the verdicts.

    The wire-index range is split into contiguous chunks; per-chunk counts
    merge by addition, so the report is identical for any worker count.
    With parallelism 1 everything runs in the calling process; otherwise
    the pool has min(parallelism, usable CPUs, chunks) workers.
    """
    _check_q(q)
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    total = 1 << (q * q)
    t0 = time.perf_counter()

    if parallelism == 1 or total <= batch_size:
        parts = [_count_range((q, 0, total, batch_size))]
    else:
        n_chunks = min(parallelism * 4, max(1, total // batch_size))
        bounds = np.linspace(0, total, n_chunks + 1, dtype=np.int64)
        jobs = [
            (q, int(bounds[i]), int(bounds[i + 1]), batch_size)
            for i in range(n_chunks)
            if bounds[i] < bounds[i + 1]
        ]
        with Pool(min(parallelism, _usable_cpus(), len(jobs))) as pool:
            parts = pool.map(_count_range, jobs)

    n_vi = sum(p[0] for p in parts)
    n_cm = sum(p[1] for p in parts)
    n_bad = sum(p[2] for p in parts)
    wall = time.perf_counter() - t0
    return CensusReport(
        q=q,
        total_wires=total,
        count_value_independent=n_vi,
        count_constant_marginal=n_cm,
        count_conservative=n_cm - n_vi,
        count_non_constant=total - n_cm,
        soundness_violations=n_bad,
        wall_time_seconds=wall,
    )


def constant_marginal_count_formula(q: int) -> int:
    """Combinatorial count of Boolean wires with a constant marginal.

    A wire has a constant marginal iff its q reparametrization diagonals
    carry the same number k of true cells; choosing k cells independently
    on each of the q diagonals gives sum_k C(q, k)^q wires.  Used purely
    as a cross-check against the enumeration census.
    """
    _check_q(q)
    return sum(comb(q, k) ** q for k in range(q + 1))


@dataclass(frozen=True)
class SpotCheck:
    """Full per-wire report for one packed index, via the dense path."""

    q: int
    wire_index: int
    table: tuple
    verdict: Verdict
    marginals: tuple
    s1_dependence: tuple | None

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "wire_index": self.wire_index,
            "table": list(self.table),
            "verdict": self.verdict.value,
            "marginals": [list(row) for row in self.marginals],
            "s1_dependence": None if self.s1_dependence is None
            else list(self.s1_dependence),
        }


def spot_check(q: int, wire_index: int) -> SpotCheck:
    """Decode one wire and report its verdict and all marginal histograms.

    Runs on the dense WireFunction path, deliberately independent of the
    packed predicates, so packed/dense agreement can be tested wire by
    wire.  For value-independent wires the witnessing mask-only dependence
    f(s1) = w(0, s1) is included.
    """
    w = index_to_wire(q, wire_index)
    verdict = classify(w)
    marginals = tuple(tuple(int(c) for c in row) for row in marginal_table(w))
    s1_dep = None
    if verdict is Verdict.VALUE_INDEPENDENT:
        s1_dep = tuple(int(w.table[s1]) for s1 in range(q))
    return SpotCheck(
        q=q,
        wire_index=wire_index,
        table=tuple(int(v) for v in w.table),
        verdict=verdict,
        marginals=marginals,
        s1_dependence=s1_dep,
    )
