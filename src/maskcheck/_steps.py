"""The step budget and every thread, lock and in-flight bound of the package
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
ITEMS_PER_THREAD = 4  # a thread's items per group of `in_threads`: bounds results held


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


def in_threads(fn, items):
    """Yield fn(item) for every item in order, a group of ITEMS_PER_THREAD
    items per thread at a time, each group started when its first result is
    asked for: thread k of a group's n = thread_count(len(group)) takes
    its items k, k + n, ... (the caller's thread is thread 0).  Once all have
    ended, the error of the lowest-numbered thread that raised one (a
    warning turned error, too) is raised, so no caller sees a partial
    group.  Only fn's errors are raised: from the first thread that cannot
    start on, the caller's thread runs the unstarted threads' items too."""
    size = ITEMS_PER_THREAD * thread_count(len(items))
    for g in range(0, len(items), size):
        group = items[g:g + size]
        n = thread_count(len(group))
        results, errors, started = [None] * len(group), [None] * n, []

        def run(k):
            try:
                for i in range(k, len(group), n):
                    results[i] = fn(group[i])
            except BaseException as exc:
                errors[k] = exc

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
        yield from results


def once(fn):
    """A function returning fn(), computed under a lock by its first caller
    and shared with every later one; a call after fn raised computes again."""
    lock, value = threading.Lock(), []

    def get():
        with lock:
            if not value:
                value.append(fn())
        return value[0]

    return get
