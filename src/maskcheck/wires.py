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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .zq import ZqElement, _as_modulus

# Dense tables are refused above this many cells (q^2) unless the caller
# raises the cap; keeps accidental q=8380417 table construction impossible.
DEFAULT_CELL_CAP = 1 << 26


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


@dataclass(frozen=True, eq=False)
class WireFunction:
    """Dense table of one wire's value over all share pairs.

    Entry i of `table` is w(s0, s1) with s0 = i // q and s1 = i % q
    (s0-major order, the normative index convention for serialized wires).
    Output symbols are integers in [0, alphabet_size).
    """

    q: int
    alphabet_size: int
    table: np.ndarray

    def __post_init__(self):
        table = np.ascontiguousarray(self.table, dtype=np.int64)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def n_cells(self) -> int:
        return self.q * self.q

    def __call__(self, s0: int, s1: int) -> int:
        return int(self.table[s0 * self.q + s1])

    @cached_property
    def _analysis(self) -> tuple[int, np.ndarray]:
        """(verdict code, read-only marginal table), as a batch of one."""
        codes, m = _analyze(self.q, self.table[None, :], self.alphabet_size, "wire")
        m.setflags(write=False)
        return int(codes[0]), m[0]


def make_wire(q, table, alphabet_size: int = 2,
              cell_cap: int = DEFAULT_CELL_CAP) -> WireFunction:
    """Validate and build a WireFunction from a flat s0-major table."""
    qq = _as_modulus(q).q
    if alphabet_size < 1:
        raise ValueError(f"alphabet_size must be >= 1, got {alphabet_size}")
    # Bounds both the table (q^2 cells) and the marginal table (q * alphabet).
    cells = qq * max(qq, alphabet_size)
    if cells > cell_cap:
        raise ValueError(
            f"q={qq} with alphabet {alphabet_size} needs {cells} table cells, "
            f"above cap {cell_cap}"
        )
    try:
        arr = np.asarray(table, dtype=np.int64)
    except OverflowError:  # an entry beyond int64; the range check names it
        arr = np.asarray(table, dtype=object)
    if arr.ndim != 1 or arr.size != qq * qq:
        raise ValueError(
            f"table has {arr.size} entries, expected q^2 = {qq * qq}"
        )
    if arr.size and (arr.min() < 0 or arr.max() >= alphabet_size):
        bad = int(np.argmax((arr < 0) | (arr >= alphabet_size)))
        raise ValueError(
            f"table entry {int(arr[bad])} at index {bad} outside "
            f"alphabet [0, {alphabet_size})"
        )
    return WireFunction(qq, alphabet_size, arr)


def wire_from_fn(q, fn, alphabet_size: int = 2,
                 cell_cap: int = DEFAULT_CELL_CAP) -> WireFunction:
    """Tabulate w(s0, s1) = fn(s0, s1) over all share pairs."""
    qq = _as_modulus(q).q
    table = [int(fn(s0, s1)) for s0 in range(qq) for s1 in range(qq)]
    return make_wire(qq, table, alphabet_size, cell_cap)


def _as_residue(x, q: int) -> int:
    if isinstance(x, ZqElement):
        if x.q != q:
            raise ValueError(f"modulus mismatch: wire has q={q}, x has q={x.q}")
        return x.value
    xv = int(x)
    if not 0 <= xv < q:
        raise ValueError(f"secret {xv} outside [0, {q})")
    return xv


@lru_cache(maxsize=1)  # callers work at one q at a time
def _reparam_index(q: int) -> np.ndarray:
    """(q, q) flat table indices arranged so that gather yields w(x - s1, s1)."""
    dtype = np.int32 if q * q < 1 << 31 else np.int64
    x = np.arange(q, dtype=dtype)[:, None]
    s1 = np.arange(q, dtype=dtype)[None, :]
    idx = ((x - s1) % q) * q + s1
    idx.setflags(write=False)
    return idx


def reparam_table(w: WireFunction) -> np.ndarray:
    """The (q, q) array R with R[x, s1] = w(x - s1, s1).

    Row x is the wire's output over all masks for secret x; the verdict,
    the histograms and MI all read off this view.
    """
    return w.table[_reparam_index(w.q)]


# Verdict codes of the analysis kernels, in fixed order.
VERDICT_BY_CODE = (
    Verdict.VALUE_INDEPENDENT,
    Verdict.CONSTANT_MARGINAL_ONLY,
    Verdict.NON_CONSTANT_MARGINAL,
)


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


def _analyze(q: int, cells: np.ndarray, alphabet: int,
             what: str) -> tuple[np.ndarray, np.ndarray]:
    """Verdict codes (n,) and marginal tables (n, q, alphabet) of a batch.

    `cells` holds n flat s0-major tables with entries in [0, alphabet).
    The reparametrized view is gathered once; value independence is read
    off it (every column constant over the secrets), and all n*q
    histograms come from one offset bincount.
    """
    r = cells[:, _reparam_index(q)]
    vi = (r == r[:, 0:1, :]).all(axis=(1, 2))
    n = len(r)
    r += np.arange(0, n * q * alphabet, alphabet, dtype=r.dtype).reshape(n, q, 1)
    m = np.bincount(r.ravel(), minlength=n * q * alphabet).reshape(n, q, alphabet)
    cm = (m == m[:, 0:1, :]).all(axis=(1, 2))
    return _verdict_codes(q, vi, cm, what), m


def is_value_independent(w: WireFunction) -> bool:
    """Does w(x - s1, s1) never depend on x?

    Checked exactly as stated: for each mask s1, the column of
    reparametrized outputs over all secrets must be constant.  O(q^2).
    """
    return VERDICT_BY_CODE[w._analysis[0]] is Verdict.VALUE_INDEPENDENT


def marginal_histogram(w: WireFunction, x) -> np.ndarray:
    """Output counts over a uniform mask for one secret x.

    counts[v] = #{s1 : w(x - s1, s1) = v}; the counts always sum to q
    because each mask contributes exactly one output.
    """
    return marginal_table(w)[_as_residue(x, w.q)]


def marginal_table(w: WireFunction) -> np.ndarray:
    """All marginal histograms stacked: shape (q, alphabet_size), read-only."""
    return w._analysis[1]


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

    `cells` has shape (n, q*q) and non-negative entries; the alphabet is
    taken as the largest entry plus one.  The result holds one code per
    row, indexing into VERDICT_BY_CODE.  The soundness cross-check runs on
    every row, same as `classify`.
    """
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim != 2 or cells.shape[1] != q * q:
        raise ValueError(f"cells must have shape (n, {q * q})")
    if cells.min(initial=0) < 0:
        raise ValueError("cells must be non-negative")
    return _analyze(q, cells, int(cells.max(initial=0)) + 1, "bulk row {}")[0]


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
    integer counts.  Per-term ratios p(v|x)/p(v) reduce to
    (counts[x][v] * q) / colsum[v]; when the histogram is constant those
    integers are equal, each ratio is exactly 1.0 and the sum is exactly
    0.0 with no cancellation.
    """
    m = marginal_table(w)
    q = w.q
    colsum = m.sum(axis=0)
    h = m.astype(np.float64)
    total = float(q) * float(q)
    nz = m > 0
    ratios = (h[nz] * q) / np.broadcast_to(colsum, m.shape)[nz]
    bits = float(np.sum((h[nz] / total) * np.log2(ratios)))
    return MutualInformation(bits=bits, is_zero=has_constant_marginal(w))


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
    table = np.zeros(qq * qq, dtype=np.int64)
    table[:qq] = 1  # s0 = 0 row
    return WireFunction(qq, 2, table)


def translation_bijection_check(
    w: WireFunction, x, x_prime, cap: int = 1 << 20
) -> bool:
    """Verify the translation argument behind the constant marginal.

    For an indicator-style wire, the masks producing output 1 at secret x
    and at secret x' are related by s1 -> s1 + (x' - x).  This enumerates
    both mask sets and confirms the translation maps one onto the other
    bijectively.
    """
    q = w.q
    if q > cap:
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
        "table": [int(v) for v in w.table],
    }


def wire_from_dict(doc, cell_cap: int = DEFAULT_CELL_CAP) -> WireFunction:
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
    # load_wire hands over an int64 array when it parsed the table itself.
    typed = isinstance(table, np.ndarray) and table.dtype == np.int64 and table.ndim == 1
    if not (typed or isinstance(table, list)):
        raise WireFormatError("table must be a JSON array")
    if len(table) != q * q:
        raise WireFormatError(
            f"table has {len(table)} entries, expected q^2 = {q * q} "
            f"(first missing index {min(len(table), q * q)})"
        )
    # One pass over the entry types; make_wire checks the range.
    bad = set() if typed else set(map(type, table)) - {int}
    if bad:
        types = list(map(type, table))
        i = min(types.index(t) for t in bad)
        raise WireFormatError(f"table entry at index {i} is not an integer: {table[i]!r}")
    try:
        return make_wire(q, table, alphabet, cell_cap)
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc


# Bytes a table body may hold for the numpy parse: digits, commas, JSON whitespace.
_JSON_WS_BYTES = b" \t\n\r"
_INT_BODY_BYTES = b"0123456789," + _JSON_WS_BYTES
_INT64_MAX = int(np.iinfo(np.int64).max)


def _parse_int_body(body: bytes) -> np.ndarray | None:
    """The entries of a JSON array body of plain non-negative integers.

    Returns None for any body that json.loads would not read as exactly
    these integers.  np.fromstring alone is too lenient: it reads "01",
    invents a value after a trailing comma or in an empty body, and
    saturates at INT64_MAX, so the digit count and the maximum are checked
    against the parsed values.
    """
    if body.translate(None, _INT_BODY_BYTES):
        return None
    if body.rstrip(_JSON_WS_BYTES).endswith(b","):
        return None  # np.fromstring would read past the end for the last value
    commas = body.count(b",")
    try:
        arr = np.fromstring(body, dtype=np.int64, sep=",", count=commas + 1)
    except ValueError:
        return None
    top = int(arr.max())
    if top >= _INT64_MAX:
        return None
    # Every digit must belong to one value written without leading zeros.
    digits = len(body.translate(None, b"," + _JSON_WS_BYTES))
    widths = arr.size + sum(
        np.count_nonzero(arr >= 10 ** k) for k in range(1, len(str(top)))
    )
    return arr if digits == widths else None


def _scan_int_wire(data: bytes) -> dict | None:
    """The wire document in `data` with its table parsed by numpy.

    Walks the top-level object, decoding every value but "table" with the
    json module.  Returns None, so that the caller falls back to json.loads,
    unless the file is ASCII and each "table" value is an array that
    `_parse_int_body` accepts.
    """
    if not data.isascii():
        return None
    text = data.decode("ascii")
    ws = json.decoder.WHITESPACE.match
    decode = json.JSONDecoder().raw_decode
    doc = {}
    i = ws(text).end()
    if not text.startswith("{", i):
        return None
    i = ws(text, i + 1).end()
    try:
        while True:
            if not text.startswith('"', i):
                return None
            key, i = json.decoder.scanstring(text, i + 1)
            i = ws(text, i).end()
            if not text.startswith(":", i):
                return None
            i = ws(text, i + 1).end()
            if key == "table" and text.startswith("[", i):
                end = text.find("]", i)
                value = _parse_int_body(data[i + 1:end]) if end > 0 else None
                if value is None:
                    return None
                i = end + 1
            else:
                value, i = decode(text, i)
            doc[key] = value  # the last duplicate wins, as in json.loads
            i = ws(text, i).end()
            if text.startswith("}", i):
                break
            if not text.startswith(",", i):
                return None
            i = ws(text, i + 1).end()
    except (ValueError, RecursionError):
        return None
    return doc if ws(text, i + 1).end() == len(text) else None


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


def load_wire(path, cell_cap: int = DEFAULT_CELL_CAP) -> WireFunction:
    """Read a wire-function JSON file; raises WireFormatError with the
    offending position on malformed input.

    A table of plain non-negative integers is parsed straight into numpy;
    any other document goes through json.loads, which is then the only
    source of JSON and entry-type error messages.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    doc = _scan_int_wire(data)
    if doc is None:
        doc = _decode_wire_json(data)
    return wire_from_dict(doc, cell_cap)


def save_wire(w: WireFunction, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(wire_to_dict(w), fh)
        fh.write("\n")
