"""Exhaustive verdict census over every Boolean wire function at small q.

A Boolean wire over Z_q x Z_q is a q^2-bit truth table, so the whole wire
space at modulus q is the integer range [0, 2^(q^2)).  At q = 5 that is
2^25 = 33,554,432 wires, which this module classifies in full.  The census
counts each verdict class and, crucially, re-verifies on every single wire
that value-independence implies a constant marginal histogram: the
`soundness_violations` counter must come back 0.

Encoding is normative so reports are comparable across implementations:
wire index i has bit (s0 * q + s1) as its output for share pair (s0, s1).

No count touches a dense table.  A wire is value-independent iff every
mask column {s0*q + s1 : s0} holds 0 or q true cells, and has a constant
marginal iff the q reparametrization diagonals (cells with s0 + s1 = x
mod q) hold equal numbers of true cells.  Both are counts, and counts add
across any split of the index bits.  So the index splits into a low half
of q^2 // 2 bits and a high half; every pattern of each half gets a column
key and a diagonal key holding one 3-bit count field per column (per
diagonal).  A count is at most q <= 5 < 8, so the sum of a low and a high
key adds the fields without carry, and a table over all 2^(3q) keys turns
a sum into a verdict predicate.  So the wires whose keys add up to t
number sum_a H_lo[a] * H_hi[t - a], H being the halves' key histograms:
the constant-marginal wires are counted by class, none of them listed.
Only the 2^q value-independent wires are listed, each checked on its own
for a constant marginal.  At q = 5 the census takes under 0.02 s.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import comb

import numpy as np

from ._steps import steps
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

_FIELD_BITS = 3


def _check_q(q: int):
    if not 1 <= q <= MAX_CENSUS_Q:
        raise ValueError(
            f"exhaustive census supports 1 <= q <= {MAX_CENSUS_Q}, got {q}"
        )


def _check_index(q: int, wire_index):
    _check_q(q)
    if not isinstance(wire_index, (int, np.integer)):
        raise ValueError(f"wire index {wire_index!r} is not an integer")
    n = q * q
    if not 0 <= wire_index < (1 << n):
        raise ValueError(
            f"wire index {wire_index} out of range [0, 2^{n}) for q={q}"
        )


@lru_cache(maxsize=None)
def _key_tables(q: int) -> tuple[np.ndarray, ...]:
    """(col_lo, col_hi, diag_lo, diag_hi, VI, CM) for the split at q^2 // 2.

    col_lo[p] holds, in field s1, the true cells of column s1 among the
    low-half bits set in p; diag_* do the same per diagonal x.  VI[key]
    says every field is 0 or q, CM[key] that every field is equal.
    """
    n = q * q
    k = n // 2
    pos = np.arange(n)
    col = 1 << _FIELD_BITS * (pos % q)
    diag = 1 << _FIELD_BITS * ((pos // q + pos % q) % q)

    def keys(weights):
        bits = (np.arange(1 << len(weights))[:, None] >> np.arange(len(weights))) & 1
        return (bits @ weights).astype(np.intp)  # gathers take intp unconverted

    fields = (np.arange(1 << _FIELD_BITS * q)[:, None]
              >> _FIELD_BITS * np.arange(q)) & ((1 << _FIELD_BITS) - 1)
    tables = (keys(col[:k]), keys(col[k:]), keys(diag[:k]), keys(diag[k:]),
              ((fields == 0) | (fields == q)).all(axis=1),
              (fields == fields[:, :1]).all(axis=1))
    for t in tables:
        t.flags.writeable = False
    return tables


def classify_packed(q: int, wires) -> tuple[np.ndarray, np.ndarray]:
    """Verdict predicates for an array of packed wire indices.

    Returns (value_independent, constant_marginal) boolean arrays of the
    shape of `wires`, looked up a step of STEP_CELLS indices at a time (see
    `_steps`).  Every index must be an integer in [0, 2^(q^2)).
    """
    _check_q(q)
    w = np.asarray(wires)
    if w.dtype.kind not in "iu":
        raise ValueError(f"packed wire indices must be integers, got {w.dtype}")
    bad = (w < 0) | (w >= 1 << q * q)
    if bad.any():
        _check_index(q, w[bad][0].item())
    flat = w.astype(np.uint32, copy=False).ravel()
    k = q * q // 2
    low, high = np.uint32((1 << k) - 1), np.uint32(k)
    col_lo, col_hi, diag_lo, diag_hi, vi_key, cm_key = _key_tables(q)
    vi, cm = np.empty(flat.size, dtype=bool), np.empty(flat.size, dtype=bool)
    for _, step in steps(1, flat.size, 1):
        lo, hi = flat[step] & low, flat[step] >> high
        vi[step] = np.take(vi_key, col_lo[lo] + col_hi[hi])
        cm[step] = np.take(cm_key, diag_lo[lo] + diag_hi[hi])
    return vi.reshape(w.shape), cm.reshape(w.shape)


def packed_verdict(q: int, wire_index: int) -> Verdict:
    """Verdict of one wire straight off the packed representation."""
    _check_index(q, wire_index)
    vi, cm = classify_packed(q, np.array([wire_index]))
    return VERDICT_BY_CODE[_verdict_codes(q, vi, cm, f"packed wire {wire_index}")[0]]


def index_to_wire(q: int, wire_index: int) -> WireFunction:
    """Decode a packed wire index into a dense Boolean WireFunction."""
    _check_index(q, wire_index)
    table = (int(wire_index) >> np.arange(q * q)) & 1
    return make_wire(q, table, alphabet_size=2)


def wire_to_index(w: WireFunction) -> int:
    """Inverse of index_to_wire for Boolean wires at census-scale q."""
    if w.alphabet_size != 2:
        raise ValueError("only Boolean wires have a packed index")
    _check_q(w.q)
    return int(w.table @ (1 << np.arange(w.n_cells)))


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
        # Only the sound value-independent wires are constant-marginal ones.
        if (self.count_value_independent - self.soundness_violations
                > self.count_constant_marginal):
            raise ValueError("more value-independent wires than constant-marginal ones")

    def to_dict(self) -> dict:
        """Every field but the wall time, which differs between runs."""
        doc = asdict(self)
        del doc["wall_time_seconds"]
        return doc


def _value_independent_pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) half patterns of every wire whose column key is VI.

    One VI key t at a time, each low pattern's complement t - col_lo is
    searched among the sorted high column keys; since key sums never
    carry, an integer match is a match of every field.
    """
    col_lo, col_hi, _, _, vi, _ = _key_tables(q)
    order = np.argsort(col_hi)
    keys = col_hi[order]
    lo, hi = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for t in np.flatnonzero(vi):
        need = t - col_lo
        first = np.searchsorted(keys, need)
        runs = np.searchsorted(keys, need, "right") - first  # 0 or 1 at a true VI key
        at = np.repeat(np.arange(need.size), runs)
        lo.append(at)
        hi.append(order[first[at] + np.arange(at.size) - (np.cumsum(runs) - runs)[at]])
    return np.concatenate(lo), np.concatenate(hi)


def run_census(q: int, parallelism: int = 1) -> CensusReport:
    """Count every Boolean wire at modulus q into its verdict class.

    The constant-marginal wires are counted by diagonal key class: the
    wires whose low and high diagonal keys add up to a constant-marginal
    key t number sum_a H_lo[a] * H_hi[t - a], with H the halves' key
    histograms, and no such wire is listed.  The value-independent wires
    are listed (`_value_independent_pairs`), and the soundness violations
    are counted wire by wire among them: a listed wire whose diagonal key
    sum is not constant-marginal.  The count always runs in the calling
    process; `parallelism` is still accepted and must be >= 1.
    """
    _check_q(q)
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    t0 = time.perf_counter()
    _, _, diag_lo, diag_hi, _, cm = _key_tables(q)
    h_lo, h_hi = (np.bincount(d, minlength=cm.size) for d in (diag_lo, diag_hi))
    n_cm = sum(int(h_lo[:t + 1] @ h_hi[t::-1]) for t in np.flatnonzero(cm))
    lo, hi = _value_independent_pairs(q)
    n_vi = lo.size
    n_bad = int(np.count_nonzero(~cm[diag_lo[lo] + diag_hi[hi]]))
    wall = time.perf_counter() - t0
    total = 1 << (q * q)
    return CensusReport(
        q=q,
        total_wires=total,
        count_value_independent=n_vi,
        count_constant_marginal=n_cm,
        count_conservative=n_cm - (n_vi - n_bad),
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


def spot_check(q: int, wire_index: int) -> SpotCheck:
    """Decode one wire and report its verdict and all marginal histograms.

    Runs on the dense WireFunction path, deliberately independent of the
    packed predicates, so packed/dense agreement can be tested wire by
    wire.  For value-independent wires the witnessing mask-only dependence
    f(s1) = w(0, s1) is included.
    """
    w = index_to_wire(q, wire_index)
    verdict = classify(w)
    marginals = tuple(map(tuple, marginal_table(w).tolist()))
    s1_dep = None
    if verdict is Verdict.VALUE_INDEPENDENT:
        s1_dep = tuple(w.table[:q].tolist())  # w(0, s1) for every s1
    return SpotCheck(
        q=q,
        wire_index=wire_index,
        table=tuple(w.table.tolist()),
        verdict=verdict,
        marginals=marginals,
        s1_dependence=s1_dep,
    )
