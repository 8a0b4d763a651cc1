"""The step budget and every thread, lock and in-flight bound of the package
(this module imports neither numpy nor another module of the package)."""

import os
import threading

# Cells (entries, counts, keys, values) a stepped loop touches per step,
# so its temporaries stay a few MB: at q = 3329 a dense-analysis step or a
# marginal-stream block is 19 rows, and a table's scan or text, urem-check
# and `classify_packed` step 2^16 entries, pairs or indices.
STEP_CELLS = 1 << 16

# Threads at most, one per usable CPU.  Of what they run, np.fromstring,
# the one-digit chunk check's compares, np.take, np.bincount and the
# renderer's numpy steps release the GIL; bytes.translate and isdigit,
# which a multi-digit chunk parse also runs, hold it.
MAX_THREADS = 8
ITEMS_PER_THREAD = 4  # per thread, items `in_threads` takes ahead: bounds results held


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
    """Yield fn(item) for every item in order, each as soon as it is ready,
    running the items on n = thread_count(len(items)) threads, the
    caller's thread among them, from when the first result is asked for.
    A thread takes the next item while fewer than ITEMS_PER_THREAD * n are
    taken and not yet yielded; the caller's thread runs one itself when the
    result it waits for is not ready, so a thread that cannot start leaves
    its items to the others and no error is raised.  The error of the
    earliest item that raised one (a warning turned error, too) is raised
    in its place once every thread has ended, and no item is taken after
    an error.  Closing the generator stops the takes and joins every thread;
    the threads are daemons, so one never closed does not block the exit."""
    n = thread_count(len(items))
    window = ITEMS_PER_THREAD * n
    cond, done, threads = threading.Condition(), {}, []
    taken, yielded, stop = 0, 0, False

    def spent():  # under cond: no item is left to take
        return stop or taken == len(items)

    def work(finished):  # run the items this thread takes until finished() (under cond)
        nonlocal taken, stop
        while True:
            with cond:
                while not finished() and (spent() or taken - yielded >= window):
                    cond.wait()
                if finished():
                    return
                i, taken = taken, taken + 1
            try:
                result = True, fn(items[i])
            except BaseException as exc:
                result = False, exc
            with cond:
                done[i] = result
                stop |= not result[0]
                cond.notify_all()

    try:
        for _ in range(1, n):
            thread = threading.Thread(target=work, args=(spent,), daemon=True)
            try:
                thread.start()
            except RuntimeError:  # can't start new thread
                break
            threads.append(thread)
        for i in range(len(items)):
            work(lambda: i in done)
            with cond:
                ok, value = done.pop(i)
                yielded = i + 1
                cond.notify_all()
            if not ok:
                raise value
            yield value
    finally:
        with cond:
            stop = True
            cond.notify_all()
        for thread in threads:
            thread.join()

