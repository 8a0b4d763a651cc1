"""Wire functions over Z_q x Z_q, value-independence, marginals and verdicts.

A wire function w maps a pair of shares (s0, s1) to a symbol in a finite
output alphabet.  Under the arithmetic reparametrization s0 = x - s1 the
same wire becomes a function of (secret, mask); a wire is value-independent
when that reparametrized function never depends on the secret.  Value
independence is the checkable sufficient condition for distributional
security: it forces the per-secret output histogram to be the same for
every secret, which in turn forces zero mutual information between secret
and wire.

The converse fails: wires exist whose histograms are constant although the
wire is not value-independent (`t6_witness` constructs one for every
q >= 2).  A checker that accepts only value-independent wires therefore
errs on the safe side; the three-way `Verdict` keeps that distinction
explicit.  In the vocabulary of netlist screening tools, VALUE_INDEPENDENT
is the class such tools may safely label secure, CONSTANT_MARGINAL_ONLY is
the class they conservatively reject despite its leak-free distribution,
and NON_CONSTANT_MARGINAL is genuinely distinguishable by an observer.

Wire file format: `wire_to_dict`, `wire_json`, `save_wire`, `load_wire`.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from . import _integer, _steps
from .zq import DEFAULT_ENUMERATION_CAP, ZqElement, _as_modulus

# Dense tables are refused above this many cells (q^2, or q * alphabet for
# the marginal table), before anything is allocated.  The cap is fixed, so
# an analysed wire has q <= 8192 and at most 2^26 symbols.
DEFAULT_CELL_CAP = 1 << 26

# Bytes of a wire file that the loader reads, or parses, at once (a chunk
# of the table body is cut at a comma): a residue file is then held as its
# table and about this much besides.
PARSE_CHUNK = 1 << 19


class TheoryViolation(RuntimeError):
    """A result contradicting a proven property of the framework.

    Raised when an internal cross-check fails, e.g. a wire classified
    value-independent whose marginal histogram is not constant.  This never
    fires in a correct build; callers treat it as a distinct, unmissable
    failure mode.
    """


class WireFormatError(ValueError):
    """Malformed wire-function JSON."""


class Verdict(Enum):
    VALUE_INDEPENDENT = "VALUE_INDEPENDENT"
    CONSTANT_MARGINAL_ONLY = "CONSTANT_MARGINAL_ONLY"
    NON_CONSTANT_MARGINAL = "NON_CONSTANT_MARGINAL"


def _symbol_dtype(alphabet_size: int) -> np.dtype:
    """The narrowest dtype of a table with symbols in [0, alphabet_size):
    uint8 up to 256 symbols, uint16 up to 65536, else int32 (the cell cap
    keeps alphabets to 2^26 symbols)."""
    for dtype in (np.uint8, np.uint16):
        if alphabet_size - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int32)


# The dtype of a marginal table: its counts are at most q <= 8192.
_COUNT_DTYPE = np.dtype(np.uint16)


@dataclass(frozen=True, eq=False)
class WireFunction:
    """Dense table of one wire's value over all share pairs.

    Entry i of `table` is w(s0, s1) with s0 = i // q and s1 = i % q
    (s0-major order, the normative index convention for serialized wires).
    Output symbols are integers in [0, alphabet_size), stored read-only in
    the narrowest dtype for the alphabet: uint8 up to 256 symbols (a
    Boolean wire), uint16 up to 65536 (a residue wire at q = 3329), else
    int32.

    The constructor is the one gate for a table.  It raises ValueError
    where q is not a modulus, the alphabet is empty, the wire is above the
    cell cap, the table is not q^2 entries, an entry is not an integer (a
    Boolean counts as one) or an entry is outside the alphabet, naming the
    first.  An integer array of another dtype is cast, without a copy
    where it already fits.
    """

    q: int
    alphabet_size: int
    table: np.ndarray

    def __post_init__(self):
        q, alphabet = _as_modulus(self.q).q, _integer(self.alphabet_size, "alphabet_size")
        if alphabet < 1:
            raise ValueError(f"alphabet_size must be >= 1, got {alphabet}")
        _check_cell_cap(q, alphabet)
        arr = _integer_array(self.table, "table entry")
        if arr.ndim != 1 or arr.size != q * q:
            raise ValueError(f"table has {arr.size} entries, expected q^2 = {q * q}")
        if arr.size and (arr.min() < 0 or arr.max() >= alphabet):
            for _, part in _steps.steps(1, arr.size, 1):  # the first bad entry, a step at a time
                hits = (arr[part] < 0) | (arr[part] >= alphabet)
                if hits.any():
                    bad = part.start + int(np.argmax(hits))
                    break
            raise ValueError(
                f"table entry {int(arr[bad])} at index {bad} outside "
                f"alphabet [0, {alphabet})"
            )
        table = np.ascontiguousarray(arr.astype(_symbol_dtype(alphabet), copy=False))
        table.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "alphabet_size", alphabet)
        object.__setattr__(self, "table", table)

    @property
    def n_cells(self) -> int:
        return self.q * self.q

    def __call__(self, s0: int, s1: int) -> int:
        s0, s1 = _integer(s0, "s0"), _integer(s1, "s1")
        if not (0 <= s0 < self.q and 0 <= s1 < self.q):
            raise ValueError(f"shares ({s0}, {s1}) outside [0, {self.q})")
        return int(self.table[s0 * self.q + s1])

    @cached_property
    def _analysis(self) -> tuple[int, float, np.ndarray | None]:
        """(verdict code, mutual information in bits, read-only marginal
        table).  A wire whose marginal table is larger than a step is
        analysed without that table (None here) by the end of its
        `_stream`, which any pass of the stream may reach first; any other
        by `_analyze` as a batch of one, with `_value_independent`."""
        q, alphabet = self.q, self.alphabet_size
        if _in_blocks(q, alphabet):
            deque(self._stream(), maxlen=0)
            return self.__dict__["_analysis"]
        vi, (cm, m) = self._value_independent, _analyze(q, self.table[None, :], alphabet)
        code = int(_verdict_codes(q, np.array([vi]), cm, "wire")[0])
        m = m[0].astype(_COUNT_DTYPE, copy=False)  # a bincount's counts are int64
        m.setflags(write=False)
        return code, 0.0 if cm[0] else _information_bits(q, alphabet, *_keys(m, alphabet)), m

    @cached_property
    def _value_independent(self) -> bool:
        """Is every column t[:, s1] of the table constant?"""
        return bool(_rows_equal(self.table.reshape(1, self.q, self.q))[0])

    @cached_property
    def _row0(self) -> np.ndarray:
        """Secret 0's marginal histogram, which every row is compared with."""
        return marginal_histogram(self, 0)

    @cached_property
    def _marginals(self) -> np.ndarray:
        """The read-only marginal table, filled from `_stream`."""
        m = np.empty((self.q, self.alphabet_size), dtype=_COUNT_DTYPE)
        for rows, counts in self._stream(lambda counts: counts):
            m[rows] = self._row0 if counts is None else counts
        m.setflags(write=False)
        return m

    def _stream(self, fn=None, what: str = "wire"):
        """The marginal table, one step of secret rows at a time in secret
        order: yields (rows, fn(counts)) for a block of rows `counts`, or
        (rows, None) where every row of the block equals row 0 (`_row0`).

        A wire whose marginal table fits in a step streams the one block its
        analysis holds, and a larger one whose cached analysis has a constant
        marginal yields None for every step, counting nothing.  Any other is
        counted a block at a time (`_count_block`) on threads, a bounded window
        of blocks ahead of the caller (`_steps.in_threads`); each block is
        compared with row 0 (the marginal is constant iff all are equal), given
        to fn and dropped.  A block that differs gives its key histogram
        (`_keys`), one equal to row 0 counts row 0's keys once a row, and the
        pass merges the histograms it holds past STEP_CELLS keys.  The end
        keeps the wire's analysis, (verdict code, mutual information in bits,
        None), as `_analysis`, raising TheoryViolation, named by `what`, where
        the wire is value-independent but its marginal is not constant.
        """
        q, alphabet = self.q, self.alphabet_size
        if not _in_blocks(q, alphabet):
            yield slice(0, q), None if has_constant_marginal(self) else fn(self._analysis[2])
            return
        blocks = [rows for _, rows in _steps.steps(1, q, max(q, alphabet))]
        if "_analysis" in self.__dict__ and has_constant_marginal(self):  # not recounted
            yield from ((rows, None) for rows in blocks)
            return
        table, vi, row0 = self.table, self._value_independent, self._row0

        def count(rows):
            counts = _count_block(q, table, alphabet, rows.stop - rows.start, rows.start)
            same = bool((counts == row0).all())
            hist = [] if same or vi else [_keys(counts, alphabet)]
            return same, hist, None if same or fn is None else fn(counts)

        histograms, row0_rows = [], 0
        for rows, (same, hist, out) in zip(blocks, _steps.in_threads(count, blocks)):
            row0_rows += (rows.stop - rows.start) * same
            histograms += hist
            if sum(len(k) for k, _ in histograms[1:]) > _steps.STEP_CELLS:
                histograms = [_merge(histograms)]
            yield rows, out
        code = int(_verdict_codes(q, np.array([vi]), np.array([row0_rows == q]), what)[0])
        bits = 0.0 if row0_rows == q else _information_bits(
            q, alphabet, *_merge([*histograms, _keys(row0, alphabet, row0_rows)]))
        self.__dict__["_analysis"] = (code, bits, None)


def _integer_array(values, what: str) -> np.ndarray:
    """`values` as an integer array (a Boolean counts), of dtype object past int64;
    raises ValueError naming the first other entry, in row-major order."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":  # floats, strings, or ints beyond int64
        arr = np.asarray(values, dtype=object)
        for i, entry in enumerate(arr.flat):
            if not isinstance(entry, (int, np.integer)):
                raise ValueError(f"{what} {entry!r} at index {i} is not an integer")
    return arr


def _check_cell_cap(q: int, alphabet_size: int):
    """Refuse a wire whose table (q^2 cells) or marginal table
    (q * alphabet_size) would be larger than DEFAULT_CELL_CAP, before
    allocating."""
    cells = q * max(q, alphabet_size)
    if cells > DEFAULT_CELL_CAP:
        raise ValueError(
            f"q={q} with alphabet {alphabet_size} needs {cells} table cells, "
            f"above cap {DEFAULT_CELL_CAP}"
        )


def make_wire(q, table, alphabet_size: int = 2) -> WireFunction:
    """Build a WireFunction from a flat s0-major table (the constructor
    validates it)."""
    return WireFunction(q, alphabet_size, table)


def wire_from_fn(q, fn, alphabet_size: int = 2) -> WireFunction:
    """Tabulate w(s0, s1) = fn(s0, s1) over all share pairs."""
    qq = _as_modulus(q).q
    _check_cell_cap(qq, _integer(alphabet_size, "alphabet_size"))
    table = [fn(s0, s1) for s0 in range(qq) for s1 in range(qq)]
    return WireFunction(qq, alphabet_size, table)


def _as_residue(x, q: int) -> int:
    if isinstance(x, ZqElement):
        if x.q != q:
            raise ValueError(f"modulus mismatch: wire has q={q}, x has q={x.q}")
        return x.value
    if not 0 <= (xv := _integer(x, "secret")) < q:
        raise ValueError(f"secret {xv} outside [0, {q})")
    return xv


def reparam_table(w: WireFunction) -> np.ndarray:
    """The (q, q) array R with R[x, s1] = w(x - s1, s1).

    Row x is the wire's output over all masks for secret x.  The analysis
    never builds this view (see `_analyze`); it is here to be printed.
    """
    x, s1 = np.ogrid[:w.q, :w.q]
    return w.table[(x - s1) % w.q * w.q + s1]


# Verdict codes of the analysis kernels: the order of Verdict's members.
VERDICT_BY_CODE = tuple(Verdict)


def _verdict_codes(q: int, vi: np.ndarray, cm: np.ndarray, what: str) -> np.ndarray:
    """Codes into VERDICT_BY_CODE from the two predicates of each row.

    Raises TheoryViolation, naming the row as `what.format(row)`, where a
    value-independent row lacks a constant marginal.
    """
    bad = vi & ~cm
    if bad.any():
        raise TheoryViolation(
            f"{what.format(int(np.argmax(bad)))} at q={q} is value-independent "
            "but its marginal histogram varies with the secret"
        )
    return np.add(~vi, ~cm, dtype=np.int8)  # how many predicates fail


@lru_cache(maxsize=16)  # the butterfly sweep repeats a few batch shapes
def _diagonal_keys(q: int, n: int, alphabet: int) -> np.ndarray:
    """Read-only (n, q, q) K[b, s0, s1] = (b*q + (s0+s1) % q) * alphabet, a
    view of run[b, k] = (b*q + k % q) * alphabet (k < 2q) in which the s0
    and the s1 stride both step one k."""
    run = np.arange(2 * q, dtype=np.int64) % q + np.arange(0, n * q, q)[:, None]
    run *= alphabet
    run.setflags(write=False)
    return np.ndarray((n, q, q), run.dtype, run, strides=run.strides + run.strides[1:])


def _rows_equal(a: np.ndarray) -> np.ndarray:
    """(n,) bools of an (n, rows, cols) batch: does every row of a[b] equal
    its row 0?  A step's results are one per wire of its group, or one per
    row block of its wire.  A batch of at most a step is compared in one
    call, for the sweep's ~33,000 small batch comparisons: stepped, a fresh
    `butterfly --q 7 --stages 3` took 1.18 s, not 1.02 s, on 2 CPUs."""
    if a.size <= _steps.STEP_CELLS:
        return (a == a[:, :1]).all(axis=(1, 2))
    parts = [(a[wires, rows] == a[wires, :1]).all(axis=(1, 2))
             for wires, rows in _steps.steps(*a.shape)]
    return np.concatenate(parts).reshape(len(a), -1).all(axis=1)


def _in_blocks(q: int, alphabet: int) -> bool:
    """Is a marginal table of q * alphabet cells larger than a step (that
    of any residue wire), so that it is counted a block of secret rows at a
    time and never held whole for the analysis?"""
    return q * alphabet > _steps.STEP_CELLS


def _count_block(q: int, table: np.ndarray, alphabet: int, rows: int, x0: int) -> np.ndarray:
    """Marginal histograms of secrets x0 .. x0 + rows - 1 of a flat s0-major
    table, (rows, alphabet) in `_COUNT_DTYPE`.

    Secret x counts its diagonal t[(x - s1) % q, s1], the cells at flat
    index x*q - s1*(q - 1), plus q^2 where s1 > x.  So the block's cells
    are copied, in the table's dtype, from two strided views of the table:
    the columns s1 <= x0, where no row of the block wraps, and s1 >= x0 +
    rows, where every row does; the few between are gathered by index.
    Each row is bincounted into its own row of the result, so no temporary
    is an int64 array of the block's size.
    """
    cells, size = np.empty((rows, q), table.dtype), table.itemsize
    split = x0 + rows  # <= q

    def diagonals(start, cols):  # rows x cols cells, from flat index start
        return np.ndarray((rows, cols), table.dtype, table, start * size,
                          (q * size, (1 - q) * size))

    cells[:, :x0 + 1] = diagonals(x0 * q, x0 + 1)
    if split < q:
        cells[:, split:] = diagonals(q * q - rows * q + split, q - split)
    j, s1 = np.ogrid[:rows, x0 + 1:split]
    cells[:, x0 + 1:split] = table[(x0 + j - s1) % q * q + s1]
    counts = np.empty((rows, alphabet), dtype=_COUNT_DTYPE)
    for row, line in zip(counts, cells):
        row[:] = np.bincount(line, minlength=alphabet)
    return counts


def _keys(counts: np.ndarray, alphabet: int, rows: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The (count, symbol) histogram of uint16 marginal rows, each held `rows` times:
    int32 keys h * alphabet + v (< 2^27 by the cell cap) of counts h > 0, sorted, with n."""
    keys = counts * np.int32(alphabet) + np.arange(alphabet, dtype=np.int32)
    keys, n = np.unique(keys[keys >= alphabet], return_counts=True)
    return keys, n * rows


def _merge(histograms) -> tuple[np.ndarray, np.ndarray]:
    """One (keys, n) histogram of several: each key once, sorted, its n summed."""
    keys, at = np.unique(np.concatenate([k for k, _ in histograms]), return_inverse=True)
    return keys, np.bincount(at, np.concatenate([n for _, n in histograms])).astype(np.int64)


def _information_bits(q: int, alphabet: int, keys: np.ndarray, n: np.ndarray) -> float:
    """Mutual information in bits of a marginal table from its key histogram
    (`_keys`): math.fsum of n * h * log2(h * q / colsum[v]) over the keys
    h * alphabet + v, / q^2, colsum[v] summing n * h over v's keys.  Only
    libm's log2 and one rounding, in no order, lie between counts and float."""
    h, v = np.divmod(keys, alphabet)
    mass, at = n * h, np.unique(v, return_inverse=True)[1]
    colsum = np.bincount(at, mass).astype(np.int64)[at]
    return math.fsum(m * math.log2(c * q / t) for m, c, t
                     in zip(mass.tolist(), h.tolist(), colsum.tolist())) / (q * q)


def _analyze(q: int, cells: np.ndarray, alphabet: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant-marginal predicates (n,) and marginal tables (n, q, alphabet)
    of n flat s0-major integer tables t[s0, s1] with entries in [0, alphabet).

    For a fixed mask s1, s0 = x - s1 runs over Z_q as the secret x does, so
    secret x's histogram counts the diagonal s0 + s1 = x: the int64 keys
    t + `_diagonal_keys` are bincounted, one bincount per `_steps.steps`
    step, and summed.  n >= 1 whole wires whose tables and marginal tables
    fit in a step take one step; one wire whose marginal table fits in a
    step but whose table does not takes a step of its rows at a time.  A
    larger marginal table is counted by `WireFunction._stream`.
    """
    n, size = len(cells), len(cells) * q * alphabet
    t, keys = cells.reshape(n, q, q), _diagonal_keys(q, n, alphabet)
    m = sum(np.bincount((t[wires, rows] + keys[wires, rows]).ravel(), minlength=size)
            for wires, rows in _steps.steps(n, q, q)).reshape(n, q, alphabet)
    return _rows_equal(m), m


def is_value_independent(w: WireFunction) -> bool:
    """Does w(x - s1, s1) never depend on x?

    For each mask s1, x -> x - s1 is a bijection of Z_q, so the outputs
    over all secrets are exactly the column w(., s1) of the raw table; the
    wire is value-independent iff every such column is constant.  O(q^2),
    read off the table alone: `classify` cross-checks it with the marginals.
    """
    return w._value_independent


def marginal_histogram(w: WireFunction, x) -> np.ndarray:
    """Output counts over a uniform mask for one secret x.

    counts[v] = #{s1 : w(x - s1, s1) = v}; the counts always sum to q
    because each mask contributes exactly one output.  Read-only, and
    counted as the one row of a block (`_count_block`).
    """
    x = _as_residue(x, w.q)
    row = _count_block(w.q, w.table, w.alphabet_size, 1, x)[0]
    row.setflags(write=False)
    return row


def marginal_table(w: WireFunction) -> np.ndarray:
    """All marginal histograms stacked: shape (q, alphabet_size), in
    uint16, read-only and computed once.  A wire whose marginal table is
    larger than a step (any residue wire) is analysed without it, so the
    table is counted only when it is asked for here."""
    return w._marginals


def has_constant_marginal(w: WireFunction) -> bool:
    """True iff every secret yields the same output histogram."""
    return VERDICT_BY_CODE[w._analysis[0]] is not Verdict.NON_CONSTANT_MARGINAL


def classify(w: WireFunction) -> Verdict:
    """Three-way verdict for one wire.

    VALUE_INDEPENDENT implies a constant marginal; that implication is
    checked when the wire is analysed, and a failure raises
    TheoryViolation rather than returning a verdict.
    """
    return VERDICT_BY_CODE[w._analysis[0]]


def classify_cells_bulk(q: int, cells: np.ndarray) -> np.ndarray:
    """Verdict codes for many flat s0-major tables at once.

    `cells` has shape (n, q*q) and non-negative integer entries; the
    alphabet is taken as the largest entry plus one, and a row is held to
    the cell cap of one wire before the marginals are allocated.  A row
    whose marginal table is larger than a step is classified as a
    `WireFunction`, by its `_stream`; the others by `_analyze`, a group of
    rows whose tables and marginal tables fit in a step at a time.  The
    result holds one code per row, indexing into VERDICT_BY_CODE; the
    soundness cross-check runs on every row, same as `classify`.
    """
    q = _as_modulus(q).q
    cells = _integer_array(cells, "cell")
    if cells.ndim != 2 or cells.shape[1] != q * q:
        raise ValueError(f"cells must have shape (n, {q * q})")
    if cells.min(initial=0) < 0:
        raise ValueError("cells must be non-negative")
    alphabet = int(cells.max(initial=0)) + 1
    _check_cell_cap(q, alphabet)
    if _in_blocks(q, alphabet):
        codes = np.empty(len(cells), dtype=np.int8)
        for i, row in enumerate(cells):
            deque((w := WireFunction(q, alphabet, row))._stream(what=f"bulk row {i}"), maxlen=0)
            codes[i] = w._analysis[0]
        return codes
    cells = cells.astype(np.int64, copy=False)  # the cap bounds every entry
    vi, cm = _rows_equal(cells.reshape(len(cells), q, q)), np.empty(len(cells), dtype=bool)
    for wires, _ in _steps.steps(len(cells), 1, q * max(q, alphabet)):
        cm[wires] = _analyze(q, cells[wires], alphabet)[0]
    return _verdict_codes(q, vi, cm, "bulk row {}")


@dataclass(frozen=True)
class MutualInformation:
    """I(secret; wire) in bits, with an exact zero decision.

    `is_zero` is decided by integer histogram equality, never by comparing
    the float against a threshold.  `bits` uses log base 2.
    """

    bits: float
    is_zero: bool


def mutual_information(w: WireFunction) -> MutualInformation:
    """Exact-count mutual information between secret and wire output.

    Both the secret and the mask are uniform on Z_q, so the q^2 pairs
    (x, s1) are equiprobable and every probability in sight is a ratio of
    integer counts: a term depends only on its (count, symbol) pair, so the
    marginal table's pairs are counted and their terms summed once
    (`_information_bits`).  A constant histogram makes every ratio
    p(v|x)/p(v) exactly 1, and is 0.0 without any float at all.  Both are
    computed with the verdict.
    """
    return MutualInformation(bits=w._analysis[1], is_zero=has_constant_marginal(w))


def t6_witness(q) -> WireFunction:
    """The indicator-of-zero wire on the first share: w(s0, s1) = [s0 = 0].

    For every q >= 2 this wire has a constant marginal histogram (exactly
    one mask hits s0 = 0 for each secret) yet is not value-independent, so
    it classifies CONSTANT_MARGINAL_ONLY.  Degenerates at q = 1, where 0 is
    the only element and the wire is constant; rejected.
    """
    modulus = _as_modulus(q)
    if not modulus.nontrivial:
        raise ValueError(
            f"witness needs q >= 2 (no nonzero element exists at q={modulus.q})"
        )
    qq = modulus.q
    _check_cell_cap(qq, 2)
    table = np.zeros(qq * qq, dtype=_symbol_dtype(2))
    table[:qq] = 1  # s0 = 0 row
    return WireFunction(qq, 2, table)


def translation_bijection_check(
    w: WireFunction, x, x_prime, cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Verify the translation argument behind the constant marginal.

    For an indicator-style wire, the masks producing output 1 at secret x
    and at secret x' are related by s1 -> s1 + (x' - x).  This enumerates
    both mask sets and confirms the translation maps one onto the other
    bijectively.
    """
    q = w.q
    if q > (cap := _integer(cap, "cap")):
        raise ValueError(f"q={q} exceeds enumeration cap {cap}")
    xv = _as_residue(x, q)
    xpv = _as_residue(x_prime, q)
    s1 = np.arange(q, dtype=np.int64)
    set_a = set(np.nonzero(w.table[((xv - s1) % q) * q + s1] == 1)[0].tolist())
    set_b = set(np.nonzero(w.table[((xpv - s1) % q) * q + s1] == 1)[0].tolist())
    shift = (xpv - xv) % q
    image = {(s + shift) % q for s in set_a}
    return len(image) == len(set_a) and image == set_b


# ---------------------------------------------------------------------------
# Serialized wire format
#
# { "q": int, "alphabet": int, "order": "s0_major", "table": [int, ...] }
# with len(table) == q^2 and entry i encoding w(s0 = i // q, s1 = i % q).
# ---------------------------------------------------------------------------

WIRE_ORDER = "s0_major"


def wire_to_dict(w: WireFunction) -> dict:
    return {
        "q": w.q,
        "alphabet": w.alphabet_size,
        "order": WIRE_ORDER,
        "table": w.table.tolist(),
    }


def wire_from_dict(doc) -> WireFunction:
    if not isinstance(doc, dict):
        raise WireFormatError(f"wire document must be an object, got {type(doc).__name__}")
    for key in ("q", "alphabet", "order", "table"):
        if key not in doc:
            raise WireFormatError(f"missing required key {key!r}")
    if doc["order"] != WIRE_ORDER:
        raise WireFormatError(
            f"unsupported table order {doc['order']!r}; expected {WIRE_ORDER!r}"
        )
    q = doc["q"]
    alphabet = doc["alphabet"]
    table = doc["table"]
    if type(q) is not int or q < 1:
        raise WireFormatError(f"q must be a positive integer, got {q!r}")
    if type(alphabet) is not int or alphabet < 1:
        raise WireFormatError(f"alphabet must be a positive integer, got {alphabet!r}")
    # load_wire hands over an integer array when it parsed the table itself.
    typed = isinstance(table, np.ndarray) and table.dtype.kind in "iu" and table.ndim == 1
    if not (typed or isinstance(table, list)):
        raise WireFormatError("table must be a JSON array")
    # One pass over the entry types, where a JSON true is not an integer;
    # the WireFunction gate checks the rest.
    bad = set() if typed else set(map(type, table)) - {int}
    if bad:
        types = list(map(type, table))
        i = min(types.index(t) for t in bad)
        raise WireFormatError(f"table entry at index {i} is not an integer: {table[i]!r}")
    try:
        return WireFunction(q, alphabet, table)
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc


_JSON_WS_BYTES = b" \t\n\r"
_DIGIT_HEAD = re.compile(rb"([ \t\n\r]*)[0-9][ \t\n\r]*,[ \t\n\r]*")
_INT64_MAX = int(np.iinfo(np.int64).max)


def _parse_digit_chunk(body: bytes) -> np.ndarray | None:
    """The entries of a run of two or more one-digit values with JSON
    whitespace around them, as uint8, or None for any other run.  The
    separator (blanks, a comma, blanks) is read after the first digit, and
    the run is checked in place to repeat it between every two digits, by
    strided numpy compares that release the GIL."""
    head = _DIGIT_HEAD.match(body, 0, 64)  # bounded looks at both ends
    if head is None:
        return None
    end = max(len(body) - 64, 0) + len(body[-64:].rstrip(_JSON_WS_BYTES))
    run = np.frombuffer(body, np.uint8)[head.end(1):end]
    w = head.end() - head.end(1)  # a digit and the separator after it
    if (run.size - 1) % w or any((run[k::w] != run[k]).any() for k in range(1, w)):
        return None
    values = run[::w] - np.uint8(ord("0"))  # a byte below "0" wraps above 9
    return values if values.max() <= 9 else None


def _digits_and_runs(body: bytes) -> tuple[int, int] | None:
    """(digit bytes, digit runs) of a run of digits, commas and JSON blanks,
    or None where it holds any other byte.  The bytes are counted in place,
    an eighth of the run at a time, by numpy calls that release the GIL, so
    no temporary is larger than that eighth."""
    raw = np.frombuffer(body, np.uint8)
    step = max(-(-raw.size // 8), 1)
    digits = runs = other = 0
    before = False  # is the byte before this eighth a digit?
    for start in range(0, raw.size, step):
        part = raw[start:start + step]
        digit = (part ^ np.uint8(ord("0"))) < 10
        digits += int(np.count_nonzero(digit))
        runs += int(np.count_nonzero(digit[1:] > digit[:-1])) + int(digit[0] > before)
        before = bool(digit[-1])
        other += int(np.count_nonzero(part == ord(",")) + np.count_nonzero(part == ord(" ")))
        if np.count_nonzero(part < ord(" ")):  # a tab or a newline, which are rare
            other += sum(int(np.count_nonzero(part == c)) for c in b"\t\n\r")
    return (digits, runs) if digits + other == raw.size else None


def _parse_int_chunk(body: bytes) -> np.ndarray | None:
    """The entries of a run of comma-separated plain non-negative integers.

    Returns None for any run that json.loads would not read as exactly
    these integers, but for one check left to the caller: it compares the
    number of values with the entries it expects, one more than the run's
    commas.  The bytes must be digits, commas and JSON blanks, with at
    least one digit (`_digits_and_runs`).  The values go through
    np.fromstring, which releases the GIL but alone is too lenient: it
    reads a blank value between commas as 0, "01" as 1, skips a trailing
    comma and saturates at INT64_MAX.  It must read the whole run (it raises
    ValueError where it stops early), one value per digit run, which
    refuses a blank value, and every digit must belong to a value written
    without leading zeros, the widths counted a step of values at a time;
    the maximum is checked too.  With these, and the caller's comma count,
    only a run that json.loads reads as these integers is accepted.
    """
    counts = _digits_and_runs(body)
    if counts is None or not counts[1]:
        return None
    n_digits, runs = counts
    try:
        arr = np.fromstring(body, dtype=np.int64, sep=",")
    except ValueError:
        return None
    if arr.size != runs:
        return None
    top = int(arr.max())
    if top >= _INT64_MAX:
        return None
    widths = arr.size + sum(np.count_nonzero(arr[part] >= 10 ** k)
                            for _, part in _steps.steps(1, arr.size, 1)
                            for k in range(1, len(str(top))))
    return arr if n_digits == widths else None


def _split_int_wire(read_at) -> tuple[dict, list] | None:
    """Pass 1 of the loader: the wire document but its table, and the
    table's body cut into chunks, read in order with `read_at(offset, size)`.

    A read is PARSE_CHUNK bytes split evenly between the threads that
    `_steps.thread_count` allows, so the chunks in flight in pass 2 stay within
    that budget.  The body runs from the first '"table": [' to the first
    "]" after it.  Each of its reads but the first cuts a chunk at its
    first comma, and counts its commas: a chunk is (start, stop, first
    entry, stop entry), offsets into the file and entries into the table.
    The match may be a nested key, or end an escaped one, so the file is
    decoded by json.loads with the array replaced by NaN, whose
    parse_constant hook returns a private mark: the body is the table's
    only if the result is an object whose "table" is that mark and the hook
    ran once.  Otherwise, or where the rest of the file is not valid JSON
    in UTF-8, returns None, so that the caller decodes the whole file.
    """
    size = max(PARSE_CHUNK // _steps.thread_count(PARSE_CHUNK), 1)
    # The first '"table": [', or the start of one that ends the bytes read
    # so far and that the next read may complete.
    key = re.compile(rb'"table"[ \t\n\r]*:[ \t\n\r]*\[|'
                     rb'"(?:t(?:a(?:b(?:l(?:e(?:"[ \t\n\r]*(?::[ \t\n\r]*)?)?)?)?)?)?)?\Z')
    head, found = bytearray(), None
    while found is None or head[found.end() - 1] != ord("["):
        block = read_at(len(head), size)
        if not block:
            return None
        head += block
        found = key.search(head, len(head) - len(block) if found is None else found.start())
    offset = start = found.end()
    parts = [bytes(head[:start - 1]), b"NaN"]
    del head
    chunks, opened, commas = [], (start, 0), 0  # the open chunk's start and first entry
    while True:
        block = read_at(offset, size)
        if not block:
            return None
        end = block.find(b"]")
        n = end if end >= 0 else len(block)  # the read's bytes of the body
        cut = block.find(b",", 0, n)
        if offset > start and cut >= 0:
            chunks.append((opened[0], offset + cut, opened[1], commas + 1))
            opened = (offset + cut + 1, commas + 1)
        commas += int(np.count_nonzero(np.frombuffer(block, np.uint8, n) == ord(",")))
        if end >= 0:
            break
        offset += len(block)
    chunks.append((opened[0], offset + end, opened[1], commas + 1))
    offset += end + 1
    while block := read_at(offset, size):
        parts.append(block)
        offset += len(block)
    mark, calls = object(), []

    def constant(name):
        calls.append(name)
        return mark

    try:
        doc = json.loads(b"".join(parts).decode("utf-8"), parse_constant=constant)
    except (ValueError, RecursionError):
        return None
    if not (isinstance(doc, dict) and doc.get("table") is mark and len(calls) == 1):
        return None
    return doc, chunks


def _parse_int_body(read_at, chunks: list, alphabet: int, keep=True) -> np.ndarray | None:
    """Pass 2 of the loader: the entries of the body that `_split_int_wire`
    cut into `chunks`, as a table of the dtype that `alphabet` selects.

    Threads read their chunks with `read_at` and parse each into its own
    slice of one table, a bounded window of chunks ahead, until one is
    refused (`_steps.in_threads`): with `_parse_int_chunk`, or for an
    alphabet of at most 10 symbols, one digit an entry, with
    `_parse_digit_chunk` first and `_parse_int_chunk` where that refuses
    the chunk (one holding a 10, say).  Returns None where a chunk is refused,
    holds a value that the dtype cannot, or is not what pass 1 saw (a short
    read, other entries: the file changed), so that only such a body goes
    through json.loads and no table is returned with an entry unwritten.
    Unless `keep`, the entries are checked and dropped, and the table is empty.
    """
    table = np.empty(chunks[-1][3] if keep else 0, dtype=_symbol_dtype(alphabet))
    top = np.iinfo(table.dtype).max

    def parse(chunk):
        start, stop, first, end = chunk
        body = read_at(start, stop - start)
        values = None
        if len(body) == stop - start:
            values = _parse_digit_chunk(body) if alphabet <= 10 else None
            if values is None:
                values = _parse_int_chunk(body)
        if values is None or values.size != end - first or values.max() > top:
            return False
        if keep:
            table[first:end] = values
        return True

    return table if all(_steps.in_threads(parse, chunks)) else None


def _decode_wire_json(data: bytes):
    """json.loads of the file, with every failure as a WireFormatError."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(
            f"invalid UTF-8 at byte {exc.start}: {exc.reason}"
        ) from exc
    # Positions in messages count newlines as text-mode reading translates them.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise WireFormatError("invalid JSON: nested too deeply to decode") from exc
    except ValueError as exc:  # an integer beyond the int-to-str digit limit
        raise WireFormatError(f"invalid JSON: {exc}") from exc


def load_wire(path) -> WireFunction:
    """Read a wire-function JSON file; raises WireFormatError with the
    offending position on malformed input.

    A table of plain non-negative integers is parsed in two passes of
    reads at offsets, never holding the whole file: the first decodes the
    document without its table body and cuts the body into chunks
    (`_split_int_wire`), the second parses the chunks on threads into a
    table of the dtype its alphabet selects (`_parse_int_body`).  The run
    holds that table and buffers of about PARSE_CHUNK bytes.  A file that
    cannot be read at an offset, a pipe say, is read whole once and both
    passes read its bytes.  Any other document, any whose first
    '"table": [' is not its table, any with an alphabet that is not a
    positive integer, any with a value too large for that dtype and any
    that changed between the passes goes through json.loads of the whole
    file, read again from its start, which is then the only source of JSON
    and entry error messages.  A table above the cell cap is checked by
    pass 2 but not kept, so the WireFunction gate refuses it unallocated.
    """
    with open(path, "rb") as fh:
        if hasattr(os, "pread") and fh.seekable():
            fd = fh.fileno()

            def read_at(offset, size):
                return os.pread(fd, size, offset)
        else:  # a pipe, say: its bytes, read once, serve every read
            fh = io.BytesIO(fh.read())
            data = fh.getvalue()  # the same bytes, not a copy

            def read_at(offset, size):
                return data[offset:offset + size]

        split = _split_int_wire(read_at)
        if split is not None:
            doc, chunks = split
            q, alphabet = doc.get("q"), doc.get("alphabet")
            if type(alphabet) is int and alphabet >= 1:
                keep = type(q) is not int or q * max(q, alphabet) <= DEFAULT_CELL_CAP
                doc["table"] = _parse_int_body(read_at, chunks, alphabet, keep)
                if doc["table"] is not None:
                    return wire_from_dict(doc)
        fh.seek(0)
        data = fh.read()
    return wire_from_dict(_decode_wire_json(data))


def wire_json(w: WireFunction):
    """wire_to_dict(w) as compact JSON text, in pieces (`_render._table_text`)."""
    from ._render import _table_text

    yield f'{{"alphabet":{w.alphabet_size},"order":"{WIRE_ORDER}","q":{w.q},"table":['
    yield from _table_text(w.table)
    yield "]}"


def save_wire(w: WireFunction, path):
    """Write json.dumps(wire_to_dict(w)) and a newline to `path`, the table
    rendered as `wire_json` renders it."""
    from ._render import _table_text

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"q": {w.q}, "alphabet": {w.alphabet_size}, "order": "{WIRE_ORDER}", '
                 '"table": [')
        fh.writelines(_table_text(w.table, ", "))
        fh.write("]}\n")
