"""Property: `cli.main` honours the exit-code contract on any input.

Generated argv for every subcommand and malformed wire documents must end
in exit 0, or in exit 2 with nothing on stdout; no exception escapes and
exit 3 (a theory violation) never fires.  An argv that argparse rejects
exits 2 through SystemExit, as the console script would.  A handler that
runs out of memory, whatever its arguments, ends in exit 2 and one line.

Values include bools, floats, negative, huge and malformed numbers, but
work stays cheap: census q <= 4 (at most 65,536 wires), --samples <= 1000,
butterfly q <= 3 with <= 2 stages, and values above a size cap only where
that cap rejects them before any work.
"""

import importlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maskcheck.cli import build_parser, main

HUGE = st.integers(10**20, 10**40) | st.integers(-(10**40), -(10**20))
# Spellings argparse's int() rejects, next to ones it accepts.
JUNK = st.sampled_from(["True", "false", "1.5", "-0.5", "1e3", "", "0x10",
                        "nan", "3,", " 3", "-7", "٣"])


def num(lo, hi, huge=False):
    """An integer option value in [lo, hi], optionally huge, or now and
    then junk."""
    values = (st.integers(lo, hi) | HUGE if huge else st.integers(lo, hi)).map(str)
    return st.one_of(values, values, values, JUNK)


def required(name, value):
    return value.map(lambda v: [name, v])


def option(name, value):
    """`name value`, or the option left out."""
    return st.just([]) | required(name, value)


def flag(name):
    return st.sampled_from([[], [name]])


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


FORMAT = option("--format", st.sampled_from(["json", "csv", "human", "xml"]))

ARGV = {
    "census": command(
        "census",
        required("--q", num(-3, 4) | st.integers(6, 10**30).map(str)),
        option("--workers", num(-3, 8, huge=True)),
        FORMAT,
    ),
    "bias": command(
        "bias",
        required("--n", num(-5, 10**6) | st.integers(-5, (1 << 63) - 1).map(str)
               | st.integers(1 << 63, 10**40).map(str)),
        required("--q", num(-5, 70_000) | st.integers((1 << 24) + 1, 10**40).map(str)),
        FORMAT,
    ),
    "bounds": command(
        "bounds",
        required("--q", num(-5, 10**6, huge=True)),
        required("--w", num(-5, 4100, huge=True)),
        FORMAT,
    ),
    "urem-check": command(
        "urem-check",
        required("--q", num(1, 31) | num(-3, 0) | st.integers(4097, 10**30).map(str)),
        option("--w", num(-3, 64) | st.integers(4090, 4100).map(str) | HUGE.map(str)),
        option("--seed", num(-3, 10, huge=True)),
        required("--samples", num(-3, 1000)),
        flag("--exhaustive"),
        FORMAT,
    ),
    "witness": command(
        "witness",
        required("--q", num(-5, 40) | st.integers(8193, 10**30).map(str)),
        option("--wire-out", st.sampled_from(["{tmp}/w.json", "{tmp}/missing/w.json",
                                              "{tmp}", ""])),
        FORMAT,
    ),
    "butterfly": command(
        "butterfly",
        required("--q", num(2, 3) | num(-3, 1) | st.integers(8, 10**30).map(str)),
        option("--stages", num(1, 2) | num(-3, 0) | st.integers(4, 10**30).map(str)),
        option("--twiddles", st.lists(num(-5, 10, huge=True), max_size=3).map(",".join)),
        option("--roles", st.lists(st.sampled_from(["a", "b", "c", "", "A"]),
                                   min_size=1, max_size=3).map(",".join)),
        flag("--no-adversarial"),
        FORMAT,
    ),
}

# Wrong header values: out of range, above the 2^26-cell cap, wrong type.
BAD_HEADER = (st.integers(-2, 0) | st.integers(1 << 26, 10**30) | st.booleans()
              | st.floats(allow_nan=False, allow_infinity=False) | st.none()
              | st.just("2") | st.just([2]))
BAD_ENTRY = (st.integers(-3, -1) | st.integers(3, 9) | HUGE | st.booleans()
             | st.floats(-3, 3) | st.none() | st.just("1"))
FAULTS = ("q", "alphabet", "order", "entry", "length", "missing", "shape", "cut")


@st.composite
def wire_documents(draw):
    """The text of a valid wire file with up to two faults put in."""
    q, alphabet = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    table = draw(st.lists(st.integers(0, alphabet - 1), min_size=q * q, max_size=q * q))
    doc = {"q": q, "alphabet": alphabet, "order": "s0_major", "table": table}
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2))
    for fault in faults:
        if fault in ("q", "alphabet"):
            doc[fault] = draw(BAD_HEADER)
        elif fault == "order":
            doc["order"] = draw(st.sampled_from(["s1_major", 0, None]))
        elif fault == "entry" and table:  # a "length" fault can empty a q = 1 table
            table[draw(st.integers(0, len(table) - 1))] = draw(BAD_ENTRY)
        elif fault == "length":
            table[len(table) - 1:] = [] if draw(st.booleans()) else table[-1:] * 2
        elif fault == "missing":
            del doc[draw(st.sampled_from(sorted(doc)))]
    if "shape" in faults:
        doc = draw(st.sampled_from([[doc], table, {"table": doc}]))
    text = json.dumps(doc)
    if "cut" in faults:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue()[-500:])
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue(), argv
    return code, err.getvalue()


FUZZ = settings(max_examples=80, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("name", sorted(ARGV))
@FUZZ
@given(data=st.data())
def test_generated_argv(name, data):
    argv = data.draw(ARGV[name])
    with tempfile.TemporaryDirectory() as tmp:
        check_contract([a.replace("{tmp}", tmp) for a in argv])


@FUZZ
@given(text=wire_documents(), fmt=st.sampled_from(["json", "csv", "human"]))
def test_malformed_wire_documents(text, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wire.json"
        path.write_text(text)
        check_contract(["classify", str(path), "--format", fmt])


OUT_OF_MEMORY_ARGV = dict(ARGV, classify=command("classify", st.just(["{tmp}/wire.json"]), FORMAT))


@pytest.mark.parametrize("name", sorted(OUT_OF_MEMORY_ARGV))
@FUZZ
@given(data=st.data(), detail=st.sampled_from(["", "Unable to allocate 8.00 GiB"]))
def test_out_of_memory_exits_2(name, data, detail):
    """Each subcommand's handler, replaced by one that raises MemoryError."""
    def exhausted(args):
        raise MemoryError(detail)

    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in data.draw(OUT_OF_MEMORY_ARGV[name])]
        try:
            with redirect_stderr(io.StringIO()):
                args = build_parser().parse_args(argv)
        except SystemExit:  # argparse rejected the argv: no handler runs
            return
        handler = "cmd_" + args.command.replace("-", "_")
        with mock.patch.object(importlib.import_module(args.module), handler, exhausted):
            code, err = check_contract(argv)
    assert code == 2, argv
    assert err == "error: out of memory" + (f": {detail}" if detail else "") + "\n", argv
