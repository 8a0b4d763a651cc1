"""The step budget and the thread helper that every stepped or threaded
loop goes through, and results that must not depend on either."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskcheck as mc
from maskcheck import _render, _steps, census, cli, wires


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 5), rows=st.integers(0, 9), cols=st.integers(0, 9),
       budget=st.integers(1, 40))
def test_steps_cover_each_cell_once(n, rows, cols, budget):
    """The steps of an (n, rows, cols) batch cover each of its cells once,
    each within the budget unless it is one row of one wire; a batch
    without cells, an empty array say, has no steps."""
    original = _steps.STEP_CELLS
    _steps.STEP_CELLS = budget
    try:
        parts = _steps.steps(n, rows, cols)
    finally:
        _steps.STEP_CELLS = original
    seen = np.zeros((n, rows), dtype=int)
    for wires_, rows_ in parts:
        block = seen[wires_, rows_]
        assert block.size * cols <= budget or block.shape == (1, 1)
        seen[wires_, rows_] += 1
    assert (seen == 1).all()
    if n * rows == 0:
        assert parts == []


TIMEOUT = 10  # seconds: a wait that runs out fails the test instead of hanging the suite
REAL_START = threading.Thread.start


def in_background(fn):
    """Start fn() on a daemon thread of its own, whatever Thread.start is
    patched to; returns (the thread, a function that waits at most TIMEOUT
    for fn to return, then returns its result or raises its error)."""
    out, finished = [], threading.Event()

    def call():
        try:
            out.append((True, fn()))
        except BaseException as exc:
            out.append((False, exc))
        finally:
            finished.set()

    def result():
        assert finished.wait(TIMEOUT), f"no result within {TIMEOUT} s"
        ok, value = out[0]
        if not ok:
            raise value
        return value

    thread = threading.Thread(target=call, daemon=True)
    REAL_START(thread)
    return thread, result


def wait_for(condition):
    """Poll condition() until it holds, failing the test after TIMEOUT."""
    deadline = time.monotonic() + TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, f"condition unmet within {TIMEOUT} s"
        time.sleep(0.001)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_in_threads_raises_the_earliest_error_once_every_thread_has_ended(monkeypatch,
                                                                         threads):
    """Items 4 and 5 raise, item 5 first in time where another thread can
    run it while item 4 waits: item 4's error is raised, after results
    0-3, each item before it run once, and no thread that ran an item is
    alive when it is raised."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: threads)
    ran, five_raised = [], threading.Event()

    def record(item):
        ran.append((item, threading.current_thread()))
        if item == 4:
            five_raised.wait(0.5 if threads == 1 else TIMEOUT)
            raise ValueError("item 4")
        if item == 5:
            five_raised.set()
            raise ValueError("item 5")
        return item

    got = []
    consumer, result = in_background(
        lambda: got.extend(_steps.in_threads(record, list(range(8)))))
    with pytest.raises(ValueError, match="item 4"):
        result()
    assert got == [0, 1, 2, 3]
    assert sorted(item for item, _ in ran if item < 5) == [0, 1, 2, 3, 4]
    assert not any(t.is_alive() for _, t in ran if t is not consumer)
    assert len({t for _, t in ran}) <= threads
    if threads > 1:
        assert five_raised.is_set()


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_in_threads_yields_in_item_order(monkeypatch, threads):
    """Results come in item order for no item, one, and one item fewer
    or more than ITEMS_PER_THREAD per thread; one item starts no thread,
    more start one per thread but the caller's."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: threads)
    group, real_start, starts = _steps.ITEMS_PER_THREAD * threads, threading.Thread.start, []

    def start(self):
        starts.append(self)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    for n in (0, 1, group - 1, group + 1):
        starts.clear()
        assert list(_steps.in_threads(lambda i: i * i, list(range(n)))) == [
            i * i for i in range(n)]
        assert len(starts) == (threads - 1 if n > 1 else 0)


@pytest.mark.parametrize("threads", [2, 3])
def test_in_threads_takes_a_window_of_items_ahead(monkeypatch, threads):
    """No item runs before the first result is asked for.  While item 0
    blocks, exactly min(len(items), window) items start, where window is
    ITEMS_PER_THREAD per thread; then each result yielded admits one
    more, no item starts before it is admitted, and every item runs once."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: threads)
    window = _steps.ITEMS_PER_THREAD * threads
    for n in (window - 1, window + 5):
        release, started, admitted, early = threading.Event(), [], [0], []

        def record(item):
            if item >= window + admitted[0]:
                early.append(item)
            started.append(item)
            if item == 0:
                assert release.wait(TIMEOUT)
            return item

        results = _steps.in_threads(record, list(range(n)))
        _, first = in_background(lambda: next(results))
        wait_for(lambda: len(started) >= min(n, window))
        assert sorted(started) == list(range(min(n, window))) and early == []
        admitted[0] = 1  # result 0, once released, admits item `window`
        release.set()
        assert first() == 0
        for k in range(1, n):
            wait_for(lambda: len(started) >= min(n, window + k))
            assert len(started) == min(n, window + k) and early == []
            admitted[0] = k + 1
            assert in_background(lambda: next(results))[1]() == k
        assert in_background(lambda: next(results, "end"))[1]() == "end"
        assert sorted(started) == list(range(n)) and early == []


def test_in_threads_raises_an_error_after_the_earlier_results(monkeypatch):
    """An error of an item past the first window, raised while the item
    before it still runs, is raised once every earlier result has been
    yielded, not before, and no item a window or more past it is started."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: 2)
    window = 2 * _steps.ITEMS_PER_THREAD
    bad, started, raised = window + 1, [], threading.Event()

    def fail_past_the_window(item):
        started.append(item)
        if item == bad - 1:
            assert raised.wait(TIMEOUT)
        if item == bad:
            raised.set()
            raise ValueError("past the window")
        return item

    got = []
    _, result = in_background(lambda: got.extend(
        _steps.in_threads(fail_past_the_window, list(range(4 * window)))))
    with pytest.raises(ValueError, match="past the window"):
        result()
    assert got == list(range(bad))
    assert bad in started and max(started) < bad + window


def test_in_threads_under_contention(monkeypatch):
    """Eight threads, more than the host's cores, switching every
    microsecond over 3000 items: the results come in order, each item runs
    once, and none starts a window or more ahead of the results asked for."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: 8)
    window = _steps.ITEMS_PER_THREAD * 8
    items, ran, asked, early = list(range(3000)), [], [0], []

    def square(item):
        if item >= window + asked[0]:
            early.append(item)
        ran.append(item)
        return item * item

    def consume():
        results, got = _steps.in_threads(square, items), []
        for k in items:
            asked[0] = k + 1  # asking for result k admits item window + k
            got.append(next(results))
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = in_background(consume)[1]()
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in items]
    assert sorted(ran) == items and early == []


def test_abandoned_in_threads_leaves_no_thread_running(monkeypatch):
    """A caller that stops asking after a few results, or after none,
    leaves as many threads alive as before it called."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: 4)
    baseline = threading.active_count()
    for asked in (0, 1, 3 * _steps.ITEMS_PER_THREAD):
        results = _steps.in_threads(lambda i: i, list(range(40)))
        assert [next(results) for _ in range(asked)] == list(range(asked))
        del results
        assert threading.active_count() == baseline


def test_closing_in_threads_waits_for_the_items_it_started(monkeypatch):
    """Closing the generator after its first result returns only once every
    item it started has returned, so none writes on after it."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: 3)
    started, returned = [], []

    def slow(item):
        started.append(item)
        if item:
            time.sleep(0.05)
        else:  # so that more than one item runs when the generator is closed
            wait_for(lambda: len(started) > 1)
        returned.append(item)
        return item

    def first_then_close():
        results = _steps.in_threads(slow, list(range(20)))
        first = next(results)
        results.close()
        return first, sorted(started), sorted(returned)

    first, started_then, returned_then = in_background(first_then_close)[1]()
    assert first == 0 and returned_then == started_then


def test_unclosed_in_threads_does_not_keep_the_process_alive():
    """A process that still holds an in_threads generator at exit, 100
    items on 2 threads (a window of 8) with one result taken, so that the
    other thread waits for the window to move: the process still ends."""
    script = ("from maskcheck import _steps\n_steps.usable_cpus = lambda: 2\n"
              "results = _steps.in_threads(lambda item: item, list(range(100)))\n"
              "assert next(results) == 0\n")
    assert 100 > 2 * _steps.ITEMS_PER_THREAD
    src = Path(_steps.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=TIMEOUT)
    assert proc.returncode == 0 and not proc.stderr


@pytest.mark.parametrize("allowed", [0, 1])
def test_thread_start_failure_leaves_the_items_to_the_caller(monkeypatch, allowed):
    """Of three threads, the first `allowed` starts succeed but run
    nothing, and every later start fails: the caller's thread runs every
    item in order, nothing is raised, and each started thread is joined
    once, after the items.  `start` records the thread, and `join` runs
    its work."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: 3)
    events, calls = [], []

    def start(self):
        calls.append(self)
        if len(calls) > allowed:
            raise RuntimeError("can't start new thread")
        events.append(("start", self))

    def join(self, timeout=None):
        events.append(("join", self))
        self.run()

    def record(item):
        events.append((item, threading.current_thread()))
        return item

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(threading.Thread, "join", join)
    consumer, result = in_background(lambda: list(_steps.in_threads(record, list(range(7)))))
    assert result() == list(range(7))
    assert len(calls) == allowed + 1
    assert events == ([("start", calls[0])] * allowed + [(i, consumer) for i in range(7)]
                      + [("join", calls[0])] * allowed)


def test_thread_start_failure_leaves_classify_output_unchanged(tmp_path, monkeypatch,
                                                               capsys):
    """classify of a residue wire whose marginal blocks take three threads:
    when every second thread start fails, counted over the run, it exits 0
    with the output of a run in which every thread starts."""
    path = str(residue_file(tmp_path / "wire.json", 400))
    monkeypatch.setattr(_steps, "usable_cpus", lambda: 3)
    assert cli.main(["classify", path, "--format", "json"]) == 0
    expected = capsys.readouterr().out
    calls = []

    def start(self):
        calls.append(self)
        if len(calls) % 2 == 0:
            raise RuntimeError("can't start new thread")
        REAL_START(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    assert in_background(lambda: cli.main(["classify", path, "--format", "json"]))[1]() == 0
    assert capsys.readouterr().out == expected
    assert len(calls) >= 2


def residue_file(path, q):
    """A random residue wire (alphabet q, values of two digits), saved."""
    rng = np.random.default_rng(q)
    mc.save_wire(mc.make_wire(q, rng.integers(0, q, q * q), alphabet_size=q), path)
    return path


def outcomes(tmp_path):
    """What each stepped or threaded loop returns on fixed inputs: the
    analysis of a Boolean and a residue wire (both above 160 cells), a
    bulk batch, packed census lookups, the first bad entry make_wire
    names, a residue file read in multi-digit chunks and classify's json
    text of each wire's marginals."""
    rng = np.random.default_rng(7)
    found = {}
    for name, q, alphabet in (("boolean", 13, 2), ("residue", 29, 29)):
        table = rng.integers(0, alphabet, q * q)
        w = mc.make_wire(q, table, alphabet_size=alphabet)
        mi = mc.mutual_information(w)
        found[name] = (mc.classify(w), mc.marginal_table(w).tolist(), mi.bits, mi.is_zero)
        found[f"{name}-json"] = "".join(_render._json_rows(_render._marginal_texts(w)))
    bulk = np.vstack([rng.integers(0, 3, (4, 49)), np.tile(rng.integers(0, 3, 7), (2, 7))])
    found["bulk"] = mc.classify_cells_bulk(7, bulk).tolist()
    for q in (4, 5):
        indices = rng.integers(0, 1 << q * q, 1000)
        found[f"packed-{q}"] = [a.tolist() for a in census.classify_packed(q, indices)]
    found["packed-empty"] = [(a.shape, a.dtype) for a in
                             census.classify_packed(3, np.zeros(0, dtype=np.int64))]
    bad = [0, 1] * 50
    bad[61], bad[77] = 5, -2
    try:
        mc.make_wire(10, bad)
    except ValueError as exc:
        found["first-bad"] = str(exc)
    w = mc.load_wire(residue_file(tmp_path / "wire.json", 31))
    found["loaded"] = (w.table.dtype, w.table.tolist())
    return found


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("budget", [3, 160])
def test_results_independent_of_budget_and_threads(tmp_path, monkeypatch, budget, threads):
    """Every loop that goes through `_steps` returns under a step budget
    of 3 or 160 cells, on 1 to 3 threads, what it returns under the
    defaults, where none of these inputs is cut into steps."""
    expected = outcomes(tmp_path)
    assert expected["first-bad"] == "table entry 5 at index 61 outside alphabet [0, 2)"
    monkeypatch.setattr(_steps, "STEP_CELLS", budget)
    monkeypatch.setattr(_steps, "usable_cpus", lambda: threads)
    monkeypatch.setattr(wires, "PARSE_CHUNK", 256)

    def refused(data):
        raise AssertionError("the table went through json.loads")

    monkeypatch.setattr(wires, "_decode_wire_json", refused)
    assert len(_steps.steps(1, 13, 13)) > 1 and len(_steps.steps(6, 7, 7)) > 1
    assert _steps.thread_count(len(_steps.steps(1, 29, 29))) == threads
    assert outcomes(tmp_path) == expected
