"""classify's output path, and the json text of marginal and wire tables.

Only `classify` (its handler is here), `wires.wire_json` and `save_wire`
load this module, which imports neither `cli` nor `wires` as it loads.
classify renders every wire's marginals, in every format, from the one
stream of its marginal rows, whose pass keeps its analysis on the wire
(`WireFunction._stream`).  The renderer writes non-negative integers into
a byte buffer with numpy, a step of rows at a time: no Python int or str
is made per entry, and temporaries stay a few MB.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from ._steps import steps

if TYPE_CHECKING:
    import numpy as np

# 10^1 .. 10^18: a non-negative int64 has one digit more than the number
# of these it reaches.
_POW10 = tuple(10**k for k in range(1, 19))


def _render_rows(block: np.ndarray) -> str:
    """The rows of a non-empty 2-D block of non-negative integers as JSON
    arrays, each with a comma before it: ",[a,b],[c,d]".

    Rendered into a byte buffer by numpy, so no Python int or str is made
    per entry.
    """
    import numpy as np

    cols = block.shape[1]
    digits = np.ones(block.shape, dtype=np.uint8)  # at most 19
    for power in _POW10[:len(str(block.max())) - 1]:
        digits += block >= power
    # Each entry is its digits and a separator, and each row starts with ",[".
    lengths = digits + np.uint8(1)
    lengths[:, 0] += 2
    ends = np.cumsum(lengths.ravel(), dtype=np.intp)
    # Every byte that is not a digit, "[" or "]" is a comma.
    buf = np.full(int(ends[-1]), ord(","), dtype=np.uint8)
    buf[ends[cols - 1::cols] - 1] = ord("]")
    buf[ends[::cols] - digits[:, 0] - 2] = ord("[")
    # Digits right to left, from each entry's last, whose positions are
    # the ends moved in place; an entry drops out after its leading digit.
    pos, x = ends, block.ravel()
    pos -= 2
    while pos.size:
        quotient = x // 10
        buf[pos] = (x - quotient * 10).astype(np.uint8) + np.uint8(ord("0"))
        more = quotient > 0
        pos, x = pos[more] - 1, quotient[more]
    return buf.tobytes().decode("ascii")


def _json_rows(blocks: Iterable[str]):
    """A matrix as JSON text from the ",[a,b],[c,d]" texts of its rows, in
    order: the matrix's opening "[" takes the first row's ","."""
    for i, text in enumerate(blocks):
        yield "[" + text[1:] if i == 0 else text
    yield "]"


def _list_rows(blocks: Iterable[str]):
    """The rows of ",[a,b],[c,d]" texts as the text between the brackets
    of Python's list repr, "a, b, ..."."""
    for text in blocks:
        yield from text.replace(",", ", ")[3:-1].split("], [")


def _marginal_texts(wire):
    """The ",[a,b],[c,d]" texts of a wire's marginal table from its
    `_stream`: a block is rendered (on a thread of the pass, where
    it counts) only where it differs from row 0, and row 0's text stands
    for the others."""
    row = _render_rows(wire._row0[None])
    for rows, text in wire._stream(_render_rows):
        yield row * (rows.stop - rows.start) if text is None else text


def _table_text(table: np.ndarray, sep: str = ","):
    """The entries of a flat table of non-negative integers as JSON text
    without its brackets, "a,b,c" or joined by `sep`, rendered a step of
    entries at a time, never listed."""
    for i, (_, cells) in enumerate(steps(1, table.size, 1)):
        text = _render_rows(table[None, cells])[2:-1].replace(",", sep)  # ",[a,b]" -> "a,b"
        yield sep + text if i else text


def cmd_classify(args):
    from . import cli as _cli  # handlers read the traced names off `cli`

    try:
        wire = _cli.load_wire(args.wire)
    except OSError as exc:
        raise ValueError(f"cannot read {args.wire}: {exc}") from exc
    except _cli.WireFormatError as exc:
        raise ValueError(f"{args.wire}: {exc}") from exc
    doc = {"q": wire.q, "alphabet": wire.alphabet_size,
           "marginals": lambda: _json_rows(_marginal_texts(wire))}
    if args.format == "json" and not _cli.is_value_independent(wire):
        # One pass of the stream counts, compares and renders the marginals,
        # and completes the analysis that the keys sorted after "marginals" read.
        mi = lambda: _cli.mutual_information(wire)
        doc.update(mutual_information_bits=lambda: mi().bits,
                   mutual_information_is_zero=lambda: mi().is_zero,
                   verdict=lambda: _cli.classify(wire).value)
        return _cli.Result(doc, lambda: ())  # json only
    # The analysis runs first, so that a theory violation exits 3 before any
    # output; the render then counts nothing where the marginal is constant.
    verdict = _cli.classify(wire)
    mi = _cli.mutual_information(wire)
    doc.update(verdict=verdict.value, mutual_information_bits=mi.bits,
               mutual_information_is_zero=mi.is_zero)

    def human():
        yield f"wire: q={wire.q} alphabet={wire.alphabet_size}"
        yield f"verdict: {verdict.value}"
        yield f"mutual information: {mi.bits} bits (exactly zero: {mi.is_zero})"
        yield "marginal histograms (one row per secret):"
        for x, row in enumerate(_list_rows(_marginal_texts(wire))):
            yield f"  x={x}: [{row}]"

    return _cli.Result(doc, human)
