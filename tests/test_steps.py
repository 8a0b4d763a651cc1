"""The step budget and the thread helper that every stepped or threaded
loop goes through, and results that must not depend on either."""

import threading
import time

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


def test_in_threads_stripes_items_and_raises_the_first_error(monkeypatch):
    """Thread k of n runs items k, k + n, ... up to its first error; after
    all have ended, the error of the lowest-numbered thread that raised
    one is raised."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: 3)
    ran = {}

    def record(item):
        ran.setdefault(threading.current_thread().name, []).append(item)
        if item in (4, 5):
            raise ValueError(f"item {item}")

    with pytest.raises(ValueError, match="item 4"):
        list(_steps.in_threads(record, list(range(8))))
    assert sorted(map(sorted, ran.values())) == [[0, 3, 6], [1, 4], [2, 5]]


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_in_threads_yields_in_item_order(monkeypatch, threads):
    """Results come in item order for no item, one, and one item fewer
    or more than a group of ITEMS_PER_THREAD per thread; a group of one
    item, the last of group + 1, starts no thread."""
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


def test_in_threads_starts_a_group_when_its_first_result_is_asked_for(monkeypatch):
    """No item runs before the first result is asked for, and the second
    group's items run only when its first result is."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: 2)
    group, ran = 2 * _steps.ITEMS_PER_THREAD, []

    def record(item):
        ran.append(item)
        return item

    results = _steps.in_threads(record, list(range(group + 3)))
    assert ran == []
    for item in range(group):
        assert next(results) == item
        assert sorted(ran) == list(range(group))
    assert next(results) == group
    assert sorted(ran) == list(range(group + 3))


def test_in_threads_raises_a_later_groups_error_after_the_earlier_results(monkeypatch):
    """An error in the second group is raised once the first group's
    results have all been yielded, not before."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: 2)
    group = 2 * _steps.ITEMS_PER_THREAD

    def fail_in_group_2(item):
        if item == group + 1:
            raise ValueError("group 2")
        return item

    results, got = _steps.in_threads(fail_in_group_2, list(range(2 * group))), []
    with pytest.raises(ValueError, match="group 2"):
        for item in results:
            got.append(item)
    assert got == list(range(group))


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


def test_once_computes_one_value_for_concurrent_callers():
    """Eight threads that call at once get one value, computed once; after
    fn raises, the next call computes again."""
    calls, barrier = [], threading.Barrier(8)

    def make():
        calls.append(None)
        if len(calls) == 1:
            raise ValueError("first call")
        time.sleep(0.05)  # long enough for the other callers to arrive
        return object()

    shared = _steps.once(make)
    with pytest.raises(ValueError, match="first call"):
        shared()
    got = []

    def call():
        barrier.wait()
        got.append(shared())

    threads = [threading.Thread(target=call) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(calls) == 2 and len(got) == 8 and all(value is got[0] for value in got)


def test_thread_start_failure_joins_the_started_threads(monkeypatch):
    """When the second of three threads cannot start, the caller's thread
    runs its items after its own, the first thread, already running, is
    joined, and nothing is raised.  No real thread is started: `start`
    records the thread, and `join` runs its work."""
    monkeypatch.setattr(_steps, "usable_cpus", lambda: 3)
    events, done = [], []

    def start(self):
        if events:
            raise RuntimeError("can't start new thread")
        events.append(("start", self))

    def join(self, timeout=None):
        events.append(("join", self))
        self.run()

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(threading.Thread, "join", join)
    list(_steps.in_threads(done.append, list(range(7))))
    first = events[0][1]
    assert events == [("start", first), ("join", first)]
    assert done == [0, 3, 6, 2, 5, 1, 4]  # threads 0 and 2 on the caller's, then 1


def test_thread_start_failure_leaves_classify_output_unchanged(tmp_path, monkeypatch,
                                                               capsys):
    """classify of a residue wire whose marginal blocks take three threads:
    when thread 2 of each threaded loop cannot start, the run exits 0 with
    the output of a run in which every thread starts."""
    path = str(residue_file(tmp_path / "wire.json", 400))
    monkeypatch.setattr(_steps, "usable_cpus", lambda: 3)
    assert cli.main(["classify", path, "--format", "json"]) == 0
    expected = capsys.readouterr().out
    real_start, refused = threading.Thread.start, []

    def start(self):
        if self._args == (2,):  # the `run(k)` argument of `in_threads`
            refused.append(self)
            raise RuntimeError("can't start new thread")
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    assert cli.main(["classify", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == expected
    assert refused


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
