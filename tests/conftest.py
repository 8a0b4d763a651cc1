import faulthandler
import os
import signal
import threading

import pytest

# A test call that runs longer than this fails (the slowest test takes about
# 10 s), so a deadlock in a test ends tier-1 with a failure, not a hang.  A
# call that even the failure cannot end, one blocked where no signal reaches
# Python, dumps every thread's stack and exits the run BACKSTOP_S later.
TEST_WALL_LIMIT_S = 120
BACKSTOP_S = 60
HANG_STDERR = pytest.StashKey[int]()


class WallLimitExceeded(BaseException):
    """Not an Exception, so neither the code under test nor hypothesis
    (which would replay and shrink a failing example) catches it; pytest
    reports the test as failed."""


def pytest_configure(config):
    # faulthandler writes to a file descriptor; a copy of stderr taken
    # outside any test is not the one test output capture redirects.
    config.stash[HANG_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[HANG_STDERR])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Arm the wall limit around the test call and disarm it after."""
    alarm = (hasattr(signal, "SIGALRM")
             and threading.current_thread() is threading.main_thread())
    if alarm:
        def expire(signum, frame):
            raise WallLimitExceeded(f"test call ran longer than {TEST_WALL_LIMIT_S} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, TEST_WALL_LIMIT_S)
    faulthandler.dump_traceback_later(TEST_WALL_LIMIT_S + BACKSTOP_S, exit=True,
                                      file=item.config.stash[HANG_STDERR])
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criteria lines even when stdout capture is on."""
    try:
        from test_acceptance import CRITERION_LINES
    except Exception:
        return
    if CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
