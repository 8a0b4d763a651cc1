"""The step budget and thread policy of every stepped or threaded loop
(this module imports neither numpy nor another module of the package)."""

import os
import threading

# Cells (entries, counts, keys, values) a stepped loop touches per step,
# so its temporaries stay a few MB: at q = 3329 a dense-analysis step is 19
# rows, and a census step's 2^16 intp keys (512 KB) stay in a core's L2,
# 22-26 ms per 2^20 indices against 39-45 ms in one piece.
STEP_CELLS = 1 << 16

# Threads at most, one per usable CPU.  Of what they run, np.fromstring,
# np.take, np.bincount and the renderer's numpy steps release the GIL;
# bytes.translate and isdigit, which each chunk parse also runs, hold it.
MAX_THREADS = 8


def steps(n: int, rows: int, cols: int) -> list[tuple[slice, slice]]:
    """(wires, rows) slices that cover an (n, rows, cols) batch in steps of
    at most STEP_CELLS cells: groups of whole wires while one fits in a
    step, else row blocks of one wire (one row at least, ending by `rows`); none if empty."""
    wires = max(STEP_CELLS // max(rows * cols, 1), 1)
    block = max(min(rows, STEP_CELLS // max(cols, 1)), 1)
    return [(slice(b, b + wires), slice(r, min(r + block, rows)))
            for b in range(0, n, wires) for r in range(0, rows, block)]


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def thread_count(tasks: int) -> int:
    """One thread per usable CPU, at most MAX_THREADS and one per task, at least one."""
    return max(1, min(usable_cpus(), MAX_THREADS, tasks))


def in_threads(fn, items) -> None:
    """Run fn(item) for every item, thread k of n = thread_count(len(items))
    taking items k, k + n, ... (the caller's thread is thread 0).  Once all
    have ended, the error of the lowest-numbered thread that raised one (a
    warning turned error, too) is raised, so no caller sees a partial
    result.  Only fn's errors are raised: from the first thread that cannot
    start on, the caller's thread runs the items of the unstarted threads
    after its own."""
    n = thread_count(len(items))
    errors = [None] * n

    def run(k):
        try:
            for item in items[k::n]:
                fn(item)
        except BaseException as exc:
            errors[k] = exc

    started = []
    try:
        for k in range(1, n):
            thread = threading.Thread(target=run, args=(k,))
            try:
                thread.start()
            except RuntimeError:  # can't start new thread
                break
            started.append(thread)
        for k in (0, *range(len(started) + 1, n)):
            run(k)
    finally:
        for thread in started:
            thread.join()
    for exc in filter(None, errors):
        raise exc
