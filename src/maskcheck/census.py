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
for a constant marginal, on Python ints: q = 5 takes 0.01 s, no numpy.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from functools import lru_cache
from itertools import compress, count
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from . import _integer

if TYPE_CHECKING:
    import numpy as np

    from .wires import Verdict, WireFunction

# Full enumeration is capped at q^2 <= 25 bits (q <= 5); one modulus up,
# the space has 2^36 wires and is out of desk scale.
MAX_CENSUS_Q = 5

_FIELD_BITS = 3


def _check_q(q) -> int:
    if not 1 <= (q := _integer(q, "q")) <= MAX_CENSUS_Q:
        raise ValueError(f"exhaustive census supports 1 <= q <= {MAX_CENSUS_Q}, got {q}")
    return q


def _check_index(q, wire_index) -> tuple[int, int]:
    q, wire_index = _check_q(q), _integer(wire_index, "wire_index")
    if not 0 <= wire_index < 1 << q * q:
        raise ValueError(f"wire index {wire_index} out of range [0, 2^{q * q}) for q={q}")
    return q, wire_index


@lru_cache(maxsize=None)
def _key_tables(q: int) -> tuple:
    """(col_lo, col_hi, diag_lo, diag_hi, VI, CM) for the split at q^2 // 2.

    col_lo[p] holds, in field s1, the true cells of column s1 among the
    low-half bits set in p; diag_* do the same per diagonal x (read-only
    int64 buffers).  VI[key] says every field is 0 or q, CM[key] that every
    field is equal (bytes over all 2^(3q) keys).
    """
    k = q * q // 2
    col = [1 << _FIELD_BITS * (p % q) for p in range(q * q)]
    diag = [1 << _FIELD_BITS * ((p // q + p % q) % q) for p in range(q * q)]

    def keys(weights):  # bit j of an index adds weights[j]
        out = array("q", [0])
        for w in weights:
            out = out + array("q", map(w.__add__, out))
        return out

    vi, cm = bytearray(1 << _FIELD_BITS * q), bytearray(1 << _FIELD_BITS * q)
    for key in keys([q << _FIELD_BITS * i for i in range(q)]):  # fields 0 or q
        vi[key] = 1
    # Every field f: f times the all-ones key, for each f < 2^3.
    cm[::sum(1 << _FIELD_BITS * i for i in range(q))] = b"\1" * (1 << _FIELD_BITS)
    return (*(memoryview(keys(w)).toreadonly()
              for w in (col[:k], col[k:], diag[:k], diag[k:])), bytes(vi), bytes(cm))


def classify_packed(q: int, wires) -> tuple[np.ndarray, np.ndarray]:
    """Verdict predicates for an array of packed wire indices.

    Returns (value_independent, constant_marginal) boolean arrays of the
    shape of `wires`, looked up in numpy views of the key tables a step of
    STEP_CELLS indices at a time (see `_steps`).  Every index must be an
    integer in [0, 2^(q^2)).
    """
    import numpy as np

    from ._steps import steps

    q = _check_q(q)
    w = np.asarray(wires)
    if w.dtype.kind not in "iu":
        raise ValueError(f"packed wire indices must be integers, got {w.dtype}")
    bad = (w < 0) | (w >= 1 << q * q)
    if bad.any():
        _check_index(q, w[bad][0].item())
    flat = w.astype(np.uint32, copy=False).ravel()
    k = q * q // 2
    low, high = np.uint32((1 << k) - 1), np.uint32(k)
    tables = _key_tables(q)
    col_lo, col_hi, diag_lo, diag_hi = (np.frombuffer(t, np.int64) for t in tables[:4])
    vi_key, cm_key = (np.frombuffer(t, bool) for t in tables[4:])
    vi, cm = np.empty(flat.size, dtype=bool), np.empty(flat.size, dtype=bool)
    for _, step in steps(1, flat.size, 1):
        lo, hi = flat[step] & low, flat[step] >> high
        vi[step] = np.take(vi_key, col_lo[lo] + col_hi[hi])
        cm[step] = np.take(cm_key, diag_lo[lo] + diag_hi[hi])
    return vi.reshape(w.shape), cm.reshape(w.shape)


def packed_verdict(q: int, wire_index: int) -> Verdict:
    """Verdict of one wire straight off the packed representation."""
    from .wires import VERDICT_BY_CODE, _verdict_codes

    q, wire_index = _check_index(q, wire_index)
    vi, cm = classify_packed(q, [wire_index])
    return VERDICT_BY_CODE[_verdict_codes(q, vi, cm, f"packed wire {wire_index}")[0]]


def index_to_wire(q: int, wire_index: int) -> WireFunction:
    """Decode a packed wire index into a dense Boolean WireFunction."""
    from .wires import make_wire

    q, wire_index = _check_index(q, wire_index)
    return make_wire(q, [wire_index >> p & 1 for p in range(q * q)], alphabet_size=2)


def wire_to_index(w: WireFunction) -> int:
    """Inverse of index_to_wire for Boolean wires at census-scale q."""
    if w.alphabet_size != 2:
        raise ValueError("only Boolean wires have a packed index")
    _check_q(w.q)
    return sum(bit << p for p, bit in enumerate(w.table.tolist()))


class _CensusCounts(NamedTuple):
    q: int
    total_wires: int
    count_value_independent: int
    count_constant_marginal: int
    count_conservative: int
    count_non_constant: int
    soundness_violations: int
    wall_time_seconds: float


class CensusReport(_CensusCounts):
    """The verdict counts of one census.  Every way of building one (the
    constructor, `_make` and `_replace`) checks that they are consistent."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.count_constant_marginal + self.count_non_constant != self.total_wires:
            raise ValueError("census counts do not partition the wire space")
        # Only the sound value-independent wires are constant-marginal ones.
        if (self.count_value_independent - self.soundness_violations
                > self.count_constant_marginal):
            raise ValueError("more value-independent wires than constant-marginal ones")
        return self

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it
        return cls(*iterable)

    def to_dict(self) -> dict:
        """Every field but the wall time, which differs between runs."""
        doc = self._asdict()
        del doc["wall_time_seconds"]
        return doc


def _value_independent_pairs(q: int) -> tuple[list, list]:
    """(lo, hi) half patterns of every wire whose column key is VI.

    First the (VI key t, low key a) pairs whose high key t - a exists are
    found among the distinct keys; then only the half patterns of those
    keys are grouped, and each low pattern of key a meets each high
    pattern of key t - a.  Since key sums never carry, an integer match is
    a match of every field.
    """
    col_lo, col_hi, _, _, vi, _ = _key_tables(q)
    los, his = set(col_lo), set(col_hi)
    pairs = [(a, b) for t in compress(count(), vi) for a in los if (b := t - a) in his]
    lows, highs = {a: [] for a, _ in pairs}, {b: [] for _, b in pairs}
    for groups, keys in ((lows, col_lo), (highs, col_hi)):
        for p, key in enumerate(keys):
            if key in groups:
                groups[key].append(p)
    lo, hi = [], []
    for a, b in pairs:
        for h in highs[b]:
            lo += lows[a]
            hi += [h] * len(lows[a])
    return lo, hi


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
    q = _check_q(q)
    if (parallelism := _integer(parallelism, "parallelism")) < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    t0 = time.perf_counter()
    _, _, diag_lo, diag_hi, _, cm = _key_tables(q)
    h_lo, h_hi = Counter(diag_lo), Counter(diag_hi)
    n_cm = sum(n * h_hi[t - a] for t in compress(count(), cm) for a, n in h_lo.items())
    lo, hi = _value_independent_pairs(q)
    n_bad = sum(not cm[diag_lo[a] + diag_hi[b]] for a, b in zip(lo, hi))
    wall = time.perf_counter() - t0
    total = 1 << (q * q)
    return CensusReport(
        q=q,
        total_wires=total,
        count_value_independent=len(lo),
        count_constant_marginal=n_cm,
        count_conservative=n_cm - (len(lo) - n_bad),
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
    q = _check_q(q)
    return sum(comb(q, k) ** q for k in range(q + 1))


class SpotCheck(NamedTuple):
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
    from .wires import Verdict, classify, marginal_table

    q, wire_index = _check_index(q, wire_index)
    w = index_to_wire(q, wire_index)
    verdict = classify(w)
    vi = verdict is Verdict.VALUE_INDEPENDENT
    return SpotCheck(
        q=q,
        wire_index=wire_index,
        table=tuple(w.table.tolist()),
        verdict=verdict,
        marginals=tuple(map(tuple, marginal_table(w).tolist())),
        s1_dependence=tuple(w.table[:q].tolist()) if vi else None,  # w(0, s1) for every s1
    )
