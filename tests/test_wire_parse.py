"""load_wire's numpy table parse against the json.loads reference.

The reference reads a file the way load_wire did before it parsed tables
itself: text-mode UTF-8 read, json.loads, wire_from_dict.  Every document
must give the same table or the same WireFormatError text on both paths.
"""

import json
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import maskcheck as mc
from maskcheck import _steps, cli, wires


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
# Extra values holding brackets, "]" inside strings, escapes, the constants
# that json.loads accepts and "table" where it is not the wire's key.
EXTRA = st.sampled_from([
    "[[1, 2], [3]]", '"]"', '"a]b[c"', '{"table": [1, 2]}', '"\\u00e9"',
    "[]", "null", "1.5", '["]", 0]', "NaN", "Infinity", '"table"', '{"table": NaN}',
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


def force_threads(monkeypatch, threads):
    """Make the loader and the analysis see `threads` usable CPUs."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: threads)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=documents(), chunk=st.integers(1, 6), threads=st.integers(1, 4))
def test_matches_reference_across_chunk_and_window_edges(tmp_path, monkeypatch,
                                                         data, chunk, threads):
    """Chunks of a few bytes, so that every table body is cut at its
    commas, parsed on 1 to 4 threads."""
    force_threads(monkeypatch, threads)
    monkeypatch.setattr(wires, "PARSE_CHUNK", chunk)
    assert_same_as_reference(tmp_path / "wire.json", data)


@pytest.mark.parametrize("table", ["[0, 1, 1, 0]", "[0, 01, 1, 0]", "[0, 1, true, 0]",
                                   "[0, 1, 1]", "[0, 1, 1, 0,]", "[0, 1, 1, 99999999999999999999]"])
def test_above_the_cap_matches_reference(tmp_path, monkeypatch, table):
    """A table above the cell cap is checked but not kept; every document
    still gives the reference's error, the cap's only where its table is
    valid JSON of integers."""
    monkeypatch.setattr(wires, "DEFAULT_CELL_CAP", 3)
    data = '{"q": 2, "alphabet": 2, "order": "s0_major", "table": %s}' % table
    assert_same_as_reference(tmp_path / "wire.json", data.encode())


def table_body(path):
    """The text between the "[" and the "]" of the file's "table" array."""
    text = path.read_text()
    start = text.index("[", text.index('"table"')) + 1
    return text[start:text.index("]", start)]


def refuse_json_loads(monkeypatch, path):
    """Make json.loads fail on any text that holds the table body of the
    wire file at path: the header may be decoded, the table may not."""
    body, loads = table_body(path), json.loads

    def loads_without_body(text, *args, **kwargs):
        if body in text:
            raise AssertionError("json.loads called on a table body the parser reads")
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", loads_without_body)


# (document, PARSE_CHUNK).  A table body starts after the 55 bytes of
# HEADER and is read PARSE_CHUNK bytes at a time from there; every read
# but the first cuts a chunk at its first comma.
HEADER = '{"q": 2, "alphabet": 2, "order": "s0_major", "table": ['
EDGES = {
    "trailing-comma-at-cut": (HEADER + "0,1,1,0,]}", 7),
    "blank-value-after-cut": (HEADER + "0,1, ,0]}", 3),
    "blank-value-before-cut": (HEADER + "0,1, ,0]}", 5),
    "whitespace-around-cut": (HEADER + "0 ,\t1 , 1 ,\n0]}", 4),
    "leading-zero-chunk": (HEADER + "00,1,1,0]}", 1),
    "bracket-in-long-string": (
        '{"note": "' + "]" * 40 + '", "q": 2, "alphabet": 2, "order": "s0_major", '
        '"table": [0, 1, 1, 0], "tail": "]]"}', 64),
    # A two-digit header number before the table: 10, the largest alphabet
    # whose body is decoded one digit per value, in one chunk and cut at
    # every comma.
    "number-at-window-edge": ('{"alphabet": 10, "q": 2, "order": "s0_major", '
                              '"table": [0, 1, 1, 0]}', 1 << 20),
    "number-cut-by-window": ('{"alphabet": 10, "q": 2, "order": "s0_major", '
                             '"table": [0, 1, 1, 0]}', 1),
}


@pytest.mark.parametrize("name", EDGES)
def test_pinned_chunk_and_window_edges(tmp_path, monkeypatch, name):
    text, chunk = EDGES[name]
    force_threads(monkeypatch, 1)
    monkeypatch.setattr(wires, "PARSE_CHUNK", chunk)
    path = tmp_path / "wire.json"
    assert_same_as_reference(path, text.encode())
    expected = outcome(reference_wire, path)
    if expected[0] == "wire":  # the table is read without json.loads
        refuse_json_loads(monkeypatch, path)
        assert outcome(mc.load_wire, path) == expected


def record_reads(monkeypatch):
    """Make os.pread, the loader's reader of a regular file, also append
    each result to the list returned."""
    pread, reads = os.pread, []

    def recorded(fd, size, offset):
        reads.append(pread(fd, size, offset))
        return reads[-1]

    monkeypatch.setattr(os, "pread", recorded)
    return reads


RESIDUE_HEADER = '{"q": 2, "alphabet": 3329, "order": "s0_major", "table": ['
# (document, PARSE_CHUNK, a test that one of the reads passes).  The
# HEADER's '"table"' runs from byte 45 to 51, its ":" is byte 52 and its
# "[" byte 54.
READ_EDGES = {
    "key-split-across-reads": (HEADER + "0, 1, 1, 0]}", 49,
                               lambda read: read.endswith(b'"tab')),
    "colon-and-bracket-in-two-reads": (HEADER + "0, 1, 1, 0]}", 54,
                                       lambda read: read.startswith(b"[0")),
    "bracket-first-in-read": (HEADER + "0, 1, 1, 0]}", 5,
                              lambda read: read.startswith(b"]")),
    # The body's reads are "100", "0, ", "200", "0, ", ...: the chunk
    # " 2000" spans a read without a comma.
    "read-without-comma": (RESIDUE_HEADER + "1000, 2000, 3000, 3328]}", 3,
                           lambda read: read == b"200"),
}


@pytest.mark.parametrize("name", READ_EDGES)
def test_pinned_read_edges(tmp_path, monkeypatch, name):
    """Pass 1 of the loader finds the table and its chunks across the
    pinned read boundaries, and the table is read without json.loads."""
    text, chunk, edge = READ_EDGES[name]
    force_threads(monkeypatch, 1)
    monkeypatch.setattr(wires, "PARSE_CHUNK", chunk)
    path = tmp_path / "wire.json"
    path.write_bytes(text.encode())
    expected = outcome(reference_wire, path)
    assert expected[0] == "wire"
    refuse_json_loads(monkeypatch, path)
    reads = record_reads(monkeypatch)
    assert outcome(mc.load_wire, path) == expected
    assert any(map(edge, reads)), reads


def change_between_passes(monkeypatch, path, old, new):
    """Make the loader's pass 2 find `old` in the file at path replaced by
    `new`: the file is rewritten as pass 2 starts."""
    in_threads = _steps.in_threads

    def rewrite_then_run(fn, items):
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        yield from in_threads(fn, items)

    monkeypatch.setattr(_steps, "in_threads", rewrite_then_run)


CHANGED_TABLES = {
    # One comma fewer at the same length: a chunk's entries are one short.
    "comma-gone-boolean": (2, "0, 1, 1, 1, 0, 1, 0, 1, 0", b"1, 1, 1", b"1,   11"),
    "comma-gone-residue": (12, "0, 1, 1, 1, 0, 1, 0, 1, 0", b"1, 1, 1", b"1,   11"),
    # One comma more at the same length: a chunk's entries are one over.
    "comma-added-boolean": (2, "0, 1, 1, 1, 0, 1, 0, 1, 0", b"1, 1, 1", b"1,1,1,1"),
    "comma-added-residue": (12, "0, 1, 1, 1, 0, 1, 0, 1, 0", b"1, 1, 1", b"1,1,1,1"),
    # The file cut short: the last chunk reads one byte less, and as many entries.
    "truncated": (12, "0, 1, 1, 1, 0, 1, 0, 1, 10", b"10]}", b"1"),
}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("chunk", [8, 1 << 20])
@pytest.mark.parametrize("name", CHANGED_TABLES)
def test_file_changed_between_passes_matches_what_it_became(tmp_path, monkeypatch,
                                                            name, chunk, threads):
    """A chunk that pass 2 reads with other entries or other bytes than
    pass 1 counted is refused: the result is the json.loads reference of
    the file as it became, never a table with an entry that no chunk
    wrote."""
    alphabet, table, old, new = CHANGED_TABLES[name]
    force_threads(monkeypatch, threads)
    monkeypatch.setattr(wires, "PARSE_CHUNK", chunk)
    path = tmp_path / "wire.json"
    path.write_text('{"q": 3, "alphabet": %d, "order": "s0_major", "table": [%s]}'
                    % (alphabet, table))
    change_between_passes(monkeypatch, path, old, new)
    got = outcome(mc.load_wire, path)
    assert new in path.read_bytes()
    assert got == outcome(reference_wire, path)
    assert got[0] == "error"


# "1, 10" and " 1, 10" hold two entries each; pass 1 of a changed file
# may have seen one more in a chunk, one fewer, or both in turn.
SEEN_CHUNKS = {
    "as-written": [(0, 5, 0, 2), (6, 12, 2, 4)],
    "one-more": [(0, 5, 0, 3), (6, 12, 3, 5)],
    "one-fewer": [(0, 5, 0, 1), (6, 12, 1, 3)],
    "fewer-then-more": [(0, 5, 0, 3), (6, 12, 3, 4)],
}


@pytest.mark.parametrize("name", SEEN_CHUNKS)
def test_chunk_entries_other_than_pass_one_saw_refused(name):
    """Pass 2 refuses a chunk whose entries pass 1 counted one more or one
    fewer than it holds, even where the counts add up to the table's."""
    data = b"1, 10, 1, 10"
    table = wires._parse_int_body(lambda offset, size: data[offset:offset + size],
                                  SEEN_CHUNKS[name], 12)
    if name == "as-written":
        assert table.tolist() == [1, 10, 1, 10]
    else:
        assert table is None


def classify_json(capsys, path):
    """(exit code, stdout, stderr without the path) of classify --format json."""
    code = cli.main(["classify", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    return code, out, err.replace(str(path), "PATH")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("doc", [
    "residue", "boolean",
    '{"q": 2, "alphabet": 2, "order": "s0_major", "table": [0, 1, 2, 0]}',
    '{"q": 2, "alphabet": 2, "order": "s0_major", "table": [0, 1, 1, 0]',
], ids=["residue", "boolean", "entry-outside-alphabet", "unclosed-object"])
def test_named_pipe_reads_like_regular_file(tmp_path, monkeypatch, capsys, doc):
    """A wire written through a FIFO, which cannot be read at an offset,
    classifies to the same stdout, or the same exit code and message, as
    the same bytes in a regular file; a valid table is still parsed
    without json.loads."""
    path = tmp_path / "wire.json"
    if doc == "residue":
        residue_file(path, 31)
    elif doc == "boolean":
        mc.save_wire(mc.t6_witness(31), path)
    else:
        path.write_text(doc)
    expected = classify_json(capsys, path)
    if expected[0] == 0:
        refuse_json_loads(monkeypatch, path)
    fifo = tmp_path / "wire.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                              daemon=True)
    writer.start()
    assert classify_json(capsys, fifo) == expected
    writer.join(timeout=10)
    assert not writer.is_alive()


WIRE_KEYS = '"q": 2, "alphabet": 2, "order": "s0_major"'
# Documents whose first '"table": [' is not, or might not be, the wire's
# table, each with the outcome of the json.loads reference: a wire's table
# or the start of its error message.
HEADER_CASES = {
    # A splice of "[]" for the first array, compared with [], would take the
    # nested [1] as a one-entry table.
    "empty-table-after-nested": (
        '{"meta": {"table": [1]}, "table": [], "q": 1, "alphabet": 2, '
        '"order": "s0_major"}', "table has 0 entries"),
    "nested-table-first": (
        '{"meta": {"table": [1, 1]}, %s, "table": [0, 1, 1, 0]}' % WIRE_KEYS,
        [0, 1, 1, 0]),
    "escaped-key-duplicate-after": (
        '{%s, "table": [0, 1, 1, 0], "\\u0074able": [1, 1, 1, 0]}' % WIRE_KEYS,
        [1, 1, 1, 0]),
    "escaped-key-duplicate-before": (
        '{"\\u0074able": [1, 1, 1, 0], %s, "table": [0, 1, 1, 0]}' % WIRE_KEYS,
        [0, 1, 1, 0]),
    "escaped-key-empty-duplicate": (
        '{%s, "table": [0, 1, 1, 0], "\\u0074able": []}' % WIRE_KEYS,
        "table has 0 entries"),
    # The hook must have run once: this NaN would also return its mark.
    "nan-duplicate-after": ('{%s, "table": [0, 1, 1, 0], "table": NaN}' % WIRE_KEYS,
                            "table must be a JSON array"),
    "nan-value": ('{%s, "x": NaN, "table": [0, 1, 1, 0]}' % WIRE_KEYS, [0, 1, 1, 0]),
    "utf8-bom": ('\ufeff{%s, "table": [0, 1, 1, 0]}' % WIRE_KEYS,
                 "invalid JSON at line 1 column 1 (char 0): Unexpected UTF-8 BOM"),
    "table-as-string-value": (
        '{"kind": "table", "tags": ["table"], %s, "table": [0, 1, 1, 0]}' % WIRE_KEYS,
        [0, 1, 1, 0]),
    "trailing-data": ('{%s, "table": [0, 1, 1, 0]} {}' % WIRE_KEYS,
                      "invalid JSON at line 1 column"),
}


@pytest.mark.parametrize("name", HEADER_CASES)
def test_pinned_header_cases(tmp_path, name):
    text, expected = HEADER_CASES[name]
    path = tmp_path / "wire.json"
    assert_same_as_reference(path, text.encode())
    got = outcome(mc.load_wire, path)
    if isinstance(expected, list):
        assert got[0] == "wire" and got[-1] == expected
    else:
        assert got[0] == "error" and got[1].startswith(expected)


@pytest.mark.parametrize("name", EDGES)
def test_pinned_edges_split_across_three_threads(tmp_path, monkeypatch, name):
    """The pinned cuts again, with three threads sharing three times the
    pinned PARSE_CHUNK.  Each document with alphabet 2 is also read with
    alphabet 3329, which has the same body and parses its chunks without
    the one-digit check."""
    text, chunk = EDGES[name]
    force_threads(monkeypatch, 3)
    monkeypatch.setattr(wires, "PARSE_CHUNK", 3 * chunk)
    assert _steps.thread_count(wires.PARSE_CHUNK) == 3
    path = tmp_path / "wire.json"
    for doc in {text, text.replace('"alphabet": 2,', '"alphabet": 3329,')}:
        assert_same_as_reference(path, doc.encode())


def residue_file(path, q):
    """The recombined residue wire (s0 + s1) % q with alphabet q, saved."""
    s = np.arange(q)
    mc.save_wire(mc.make_wire(q, ((s[:, None] + s) % q).ravel(), alphabet_size=q), path)
    return path


def test_refused_first_chunk_stops_the_parse_after_one_group(tmp_path, monkeypatch):
    """A residue body whose first chunk is refused has at most one group of
    chunks (ITEMS_PER_THREAD per thread) parsed before json.loads of the
    whole file, which gives the reference's error message."""
    force_threads(monkeypatch, 3)
    monkeypatch.setattr(wires, "PARSE_CHUNK", 256)
    path = residue_file(tmp_path / "wire.json", 31)
    path.write_bytes(path.read_bytes().replace(b"[0, ", b"[-1, ", 1))
    data = path.read_bytes()
    _, chunks = wires._split_int_wire(lambda offset, size: data[offset:offset + size])
    group = 3 * _steps.ITEMS_PER_THREAD
    assert len(chunks) > 2 * group
    parse, decode, calls, at_fallback = wires._parse_int_chunk, wires._decode_wire_json, [], []

    def counted(chunk):
        calls.append(chunk)
        return parse(chunk)

    def fallback(data):
        at_fallback.append(len(calls))
        return decode(data)

    monkeypatch.setattr(wires, "_parse_int_chunk", counted)
    monkeypatch.setattr(wires, "_decode_wire_json", fallback)
    got = outcome(mc.load_wire, path)
    assert got == outcome(reference_wire, path)
    assert got[0] == "error" and "-1" in got[1]
    assert at_fallback == [len(calls)] and 1 <= len(calls) <= group


def fail_in_a_worker(monkeypatch, error):
    """Make `_parse_int_chunk` raise `error()` the first time a thread other
    than the caller's parses a chunk; returns the names of such threads."""
    parse = wires._parse_int_chunk
    raised = []
    lock = threading.Lock()

    def parse_or_fail(body):
        if threading.current_thread() is not threading.main_thread():
            with lock:
                first = not raised
                if first:
                    raised.append(threading.current_thread().name)
            if first:
                error()
        return parse(body)

    monkeypatch.setattr(wires, "_parse_int_chunk", parse_or_fail)
    return raised


def test_worker_exception_reaches_the_caller(tmp_path, monkeypatch):
    """An error in one worker's chunk is raised by load_wire, which returns
    no partial table and does not fall back to json.loads."""
    force_threads(monkeypatch, 4)
    monkeypatch.setattr(wires, "PARSE_CHUNK", 256)
    path = residue_file(tmp_path / "wire.json", 31)

    def error():
        raise RuntimeError("chunk parse failed")

    raised = fail_in_a_worker(monkeypatch, error)
    refuse_json_loads(monkeypatch, path)
    with pytest.raises(RuntimeError, match="chunk parse failed"):
        mc.load_wire(path)
    assert len(raised) == 1


def test_worker_deprecation_warning_fails_the_call(tmp_path, monkeypatch):
    """Under the test settings' "error::DeprecationWarning", the guard for
    np.fromstring, a DeprecationWarning in a worker thread fails load_wire
    as it would on the caller's thread."""
    force_threads(monkeypatch, 4)
    monkeypatch.setattr(wires, "PARSE_CHUNK", 256)
    path = residue_file(tmp_path / "wire.json", 31)

    def error():
        warnings.warn("np.fromstring is deprecated", DeprecationWarning)

    raised = fail_in_a_worker(monkeypatch, error)
    with pytest.raises(DeprecationWarning, match="fromstring"):
        mc.load_wire(path)
    assert len(raised) == 1


def test_eight_threads_switching_every_microsecond(tmp_path, monkeypatch):
    """More threads than cores, switching as often as the interpreter can:
    the table and the marginal table equal the ones made on one thread, and
    a body with one refused chunk near its end still goes to json.loads."""
    q = 97
    path = residue_file(tmp_path / "wire.json", q)
    text = path.read_text()
    late = text.rindex(", 5, ") + 2  # "5" becomes "05", which json.loads refuses
    bad = tmp_path / "bad.json"
    bad.write_text(text[:late] + "0" + text[late:])
    force_threads(monkeypatch, 1)
    table = mc.load_wire(path).table
    marginals = mc.marginal_table(mc.make_wire(q, table, alphabet_size=q))
    force_threads(monkeypatch, 8)
    monkeypatch.setattr(wires, "PARSE_CHUNK", 1024)
    monkeypatch.setattr(_steps, "STEP_CELLS", 500)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        w = mc.load_wire(path)
        assert w.table.tolist() == table.tolist()
        assert mc.marginal_table(w).tolist() == marginals.tolist()
        assert_same_as_reference(bad, bad.read_bytes())
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("entry", PITFALLS)
def test_each_pitfall_matches_reference(tmp_path, entry):
    for table in (f"[{entry},0,0,0]", f"[0,0,0,{entry}]", f"[{entry}]"):
        doc = '{"q": 2, "alphabet": 2, "order": "s0_major", "table": %s}' % table
        assert_same_as_reference(tmp_path / "wire.json", doc.encode())


@pytest.mark.parametrize("table", [
    "[]", "[ ]", "[0,1,1,]", "[0,1,1,0,]", "[,0,1,1,0]", "[0,,1,1]", "[0,1,1,0 ]",
    "[0,1\n,1\r\n,0]", "[0,1,1]", "[0,1,1,0,0]", "[0,1,1,0", "[0,1,[1],0]",
    # As many digits as values, but not one digit per value.
    "[12,,3,0]", "[1 2,3,0]", "[0,1 ,\t1,0]", "[0,10,1,0]", "[ 0 ]",
    # A blank value next to an extra digit, which np.fromstring read as a 0.
    "[0, ,010,1]", "[0, ,10,1 1]", "[ ,010,1,1]",
    # A second "table" key after an invalid first body: json.loads rejects it.
    '[+1,0,0,0], "table": [0,1,1,0]',
])
def test_separator_pitfalls_match_reference(tmp_path, table):
    doc = '{"q": 2, "alphabet": 2, "order": "s0_major", "table": %s}' % table
    assert_same_as_reference(tmp_path / "wire.json", doc.encode())


# Separators of one-digit runs, even ones and uneven ones, which json.loads
# reads or refuses as a whole document.
DIGIT_SEPARATORS = [", ", ",", " , ", "\t,\r\n", "\n"]
UNEVEN_BODIES = ["0, 1,1, 0, 1, 0, 1, 1, 0", "0,1,1,0,1,0,1,1 ,0", "0 ,1 , 1,0,1,0,1,1,0",
                 "0,\n1,\r\n1,0,1,0,1,1,0", "0" + ", " * 40 + "1, 1, 0, 1, 0, 1, 1, 0",
                 "0, 1,11, 0, 1, 0, 1, 1, 0"]  # a digit in a separator's last place


@pytest.mark.parametrize("sep", DIGIT_SEPARATORS)
@pytest.mark.parametrize("lead,trail", [("", ""), (" ", ""), ("", "\n"), ("\r\n  ", " \t")])
@pytest.mark.parametrize("n", [2, 7])
def test_digit_chunk_matches_json_loads(sep, lead, trail, n):
    """A run of one-digit values with blanks around it, a leading blank as
    after a cut at a comma, is read as json.loads reads it, and one that
    json.loads refuses (no comma between values) is refused."""
    body = lead + sep.join("0918273"[:n]) + trail
    try:
        expected = json.loads("[" + body + "]")
    except json.JSONDecodeError:
        expected = None
    got = wires._parse_digit_chunk(body.encode())
    assert (None if got is None else got.tolist()) == expected
    assert got is None or got.dtype == np.uint8


@pytest.mark.parametrize("body", [
    *UNEVEN_BODIES, "", " \n", "1", " 1\n", ",", "0,", ",0", "0, ", "0,,1", "0 1", "01",
    "0,10", "10,0", "0,1,-1", "/", "0,/", ":", "0,:", "0,1, :", "0, 1, 1 2",
    " " * 64 + "0, 1", "0, 1" + " " * 65, "0, 1" + " " * 64 + ", 1",
])
def test_digit_chunk_refuses_other_runs(body):
    """None for uneven separators, a value alone, bytes below "0" or above
    "9", values of two digits, blank values and blank ends longer than the
    bounded looks; the multi-digit parse and json.loads then decide."""
    assert wires._parse_digit_chunk(body.encode()) is None


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("chunk", [4, 1 << 20])
@pytest.mark.parametrize("body", [*(s.join("011010110") for s in DIGIT_SEPARATORS),
                                  *UNEVEN_BODIES, " 0,1,1,0,1,0,1,1,0\n"])
def test_digit_bodies_load_like_json_loads(tmp_path, monkeypatch, body, chunk, threads):
    """Bodies of each separator, cut at every comma or read whole, give the
    reference's table, and where that is a table json.loads is not used."""
    force_threads(monkeypatch, threads)
    monkeypatch.setattr(wires, "PARSE_CHUNK", chunk)
    path = tmp_path / "wire.json"
    doc = '{"q": 3, "alphabet": 2, "order": "s0_major", "table": [%s]}' % body
    assert_same_as_reference(path, doc.encode())
    expected = outcome(reference_wire, path)
    if expected[0] == "wire":
        refuse_json_loads(monkeypatch, path)
        assert outcome(mc.load_wire, path) == expected


def test_one_digit_body_is_one_thread_item_per_chunk(tmp_path, monkeypatch):
    """A Boolean body of several chunks reaches `_steps.in_threads` as one
    item per chunk, so its chunks are parsed on the threads."""
    force_threads(monkeypatch, 2)
    monkeypatch.setattr(wires, "PARSE_CHUNK", 64)
    w = mc.make_wire(7, np.random.default_rng(3).integers(0, 2, 49))
    path = tmp_path / "wire.json"
    mc.save_wire(w, path)
    data = path.read_bytes()
    _, chunks = wires._split_int_wire(lambda offset, size: data[offset:offset + size])
    in_threads, items = _steps.in_threads, []

    def recorded(fn, its):
        items.append(list(its))
        yield from in_threads(fn, its)

    monkeypatch.setattr(_steps, "in_threads", recorded)
    assert np.array_equal(mc.load_wire(path).table, w.table)
    assert len(chunks) > 2 and items == [chunks]


@pytest.mark.parametrize("chunk", [1, 1 << 20])
@pytest.mark.parametrize("alphabet,entry", [(2, 256), (3329, 70000)])
def test_entry_beyond_narrow_dtype_named_not_wrapped(tmp_path, monkeypatch,
                                                     chunk, alphabet, entry):
    monkeypatch.setattr(wires, "PARSE_CHUNK", chunk)
    doc = '{"q": 2, "alphabet": %d, "order": "s0_major", "table": [0, 1, %d, 0]}'
    path = tmp_path / "wire.json"
    assert_same_as_reference(path, (doc % (alphabet, entry)).encode())
    assert outcome(mc.load_wire, path) == (
        "error", f"table entry {entry} at index 2 outside alphabet [0, {alphabet})")


def test_residue_load_and_classify_hold_file_table_and_one_chunk(tmp_path, monkeypatch):
    """load_wire and classify of the recombined residue wire (s0 + s1) % q
    with alphabet q on 4 threads: numpy's and Python's traced peak is at
    most the file's bytes, its uint16 table and a few PARSE_CHUNKs of
    buffers (the load alone holds no file, see the test below)."""
    q = 1031
    path = residue_file(tmp_path / "wire.json", q)
    force_threads(monkeypatch, 4)
    file_bytes = path.stat().st_size
    tracemalloc.start()
    try:
        verdict = mc.classify(mc.load_wire(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict is mc.Verdict.NON_CONSTANT_MARGINAL
    assert peak <= file_bytes + q * q * np.dtype(np.uint16).itemsize + 3 * wires.PARSE_CHUNK


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_residue_load_holds_table_and_chunks_not_file(tmp_path, monkeypatch, threads):
    """load_wire of the recombined residue wire never holds the file: its
    traced peak is the uint16 table and at most 3 PARSE_CHUNKs of buffers,
    less than the 5 MB file and the table together."""
    q = 1031
    path = residue_file(tmp_path / "wire.json", q)
    force_threads(monkeypatch, threads)
    table_bytes = q * q * np.dtype(np.uint16).itemsize
    assert path.stat().st_size > 3 * wires.PARSE_CHUNK
    tracemalloc.start()
    try:
        w = mc.load_wire(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.table.dtype == np.uint16
    assert peak <= table_bytes + 3 * wires.PARSE_CHUNK


def test_canonical_file_skips_json_loads(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    w = mc.make_wire(7, rng.integers(0, 3, 49), 3)
    path = tmp_path / "wire.json"
    mc.save_wire(w, path)
    refuse_json_loads(monkeypatch, path)
    back = mc.load_wire(path)
    assert back.q == 7 and back.alphabet_size == 3
    assert np.array_equal(back.table, w.table)
