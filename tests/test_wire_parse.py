"""load_wire's numpy table parse against the json.loads reference.

The reference reads a file the way load_wire did before it parsed tables
itself: text-mode UTF-8 read, json.loads, wire_from_dict.  Every document
must give the same table or the same WireFormatError text on both paths.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import maskcheck as mc


def reference_wire(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise mc.WireFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}"
        ) from exc
    return mc.wire_from_dict(doc)


def outcome(load, path):
    try:
        w = load(path)
    except mc.WireFormatError as exc:
        return ("error", str(exc))
    return ("wire", w.q, w.alphabet_size, w.table.dtype, w.table.tolist())


def assert_same_as_reference(path, data: bytes):
    path.write_bytes(data)
    assert outcome(mc.load_wire, path) == outcome(reference_wire, path), data


# Entries that np.fromstring reads differently from json.loads, or not at all.
PITFALLS = [
    "-1", "+1", "01", "00", "1.0", "1e0", "true", "null", '"1"', "[1]", "1 2",
    "", "1" * 19, "9" * 19, "1" * 20, "9" * 20,
    "9223372036854775806", "9223372036854775807", "9223372036854775808",
]

WS = st.text(alphabet=" \t\n\r", max_size=2)
# Extra values holding brackets, "]" inside strings and escapes.
EXTRA = st.sampled_from([
    "[[1, 2], [3]]", '"]"', '"a]b[c"', '{"table": [1, 2]}', '"\\u00e9"',
    "[]", "null", "1.5", '["]", 0]',
])


@st.composite
def tables(draw, q):
    n = q * q + draw(st.sampled_from([0, 0, 0, -1, 1]))  # mostly the right length
    entries = draw(st.lists(st.integers(0, 3).map(str), min_size=n, max_size=n))
    if entries and draw(st.integers(0, 2)) == 1:
        entries[draw(st.integers(0, n - 1))] = draw(st.sampled_from(PITFALLS))
    seps = draw(st.lists(st.tuples(WS, WS), min_size=len(entries), max_size=len(entries)))
    body = ",".join(a + e + b for e, (a, b) in zip(entries, seps))
    if draw(st.integers(0, 9)) == 5:
        body += ","
    return "[" + draw(WS) + body + draw(WS) + "]"


@st.composite
def documents(draw):
    q = draw(st.integers(1, 3))
    pairs = [
        ('"q"', str(q)),
        ('"alphabet"', draw(st.sampled_from(["2", "4", "9223372036854775807"]))),
        ('"order"', '"s0_major"'),
        ('"table"', draw(tables(q))),
    ]
    for _ in range(draw(st.integers(0, 2))):
        pairs.append((draw(st.sampled_from(['"x"', '"tab]le"', '"\\u0074able"'])),
                      draw(EXTRA)))
    if draw(st.integers(0, 5)) == 3:  # non-ASCII bytes outside the table
        pairs.append(('"ü"', '"café"'))
    if draw(st.integers(0, 2)) == 1:  # a duplicate key: json.loads keeps the last
        pairs.append(('"table"', draw(tables(q))))
    pairs = draw(st.permutations(pairs))
    items = [draw(WS) + k + draw(WS) + ":" + draw(WS) + v + draw(WS) for k, v in pairs]
    trailer = draw(st.sampled_from(["", "", "", "}", " 0"]))  # "Extra data"
    text = draw(WS) + "{" + ",".join(items) + "}" + trailer + draw(WS)
    if draw(st.integers(0, 9)) == 5:
        text = text[:draw(st.integers(0, len(text)))]
    return text.encode("utf-8")


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=documents())
def test_matches_json_loads_reference(tmp_path, data):
    assert_same_as_reference(tmp_path / "wire.json", data)


@pytest.mark.parametrize("entry", PITFALLS)
def test_each_pitfall_matches_reference(tmp_path, entry):
    for table in (f"[{entry},0,0,0]", f"[0,0,0,{entry}]", f"[{entry}]"):
        doc = '{"q": 2, "alphabet": 2, "order": "s0_major", "table": %s}' % table
        assert_same_as_reference(tmp_path / "wire.json", doc.encode())


@pytest.mark.parametrize("table", [
    "[]", "[ ]", "[0,1,1,]", "[0,1,1,0,]", "[,0,1,1,0]", "[0,,1,1]", "[0,1,1,0 ]",
    "[0,1\n,1\r\n,0]", "[0,1,1]", "[0,1,1,0,0]", "[0,1,1,0", "[0,1,[1],0]",
])
def test_separator_pitfalls_match_reference(tmp_path, table):
    doc = '{"q": 2, "alphabet": 2, "order": "s0_major", "table": %s}' % table
    assert_same_as_reference(tmp_path / "wire.json", doc.encode())


def test_canonical_file_skips_json_loads(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    w = mc.make_wire(7, rng.integers(0, 3, 49), 3)
    path = tmp_path / "wire.json"
    mc.save_wire(w, path)

    def no_loads(*args, **kwargs):
        raise AssertionError("json.loads called on a canonical wire file")

    monkeypatch.setattr(json, "loads", no_loads)
    back = mc.load_wire(path)
    assert back.q == 7 and back.alphabet_size == 3
    assert np.array_equal(back.table, w.table)
