"""Run the maskcheck CLI from this checkout's ``src/`` and report peak RSS.

    python3 perfbench/launch.py ARGS...     # same arguments as `maskcheck`

Behaves like the installed ``maskcheck`` console script.  When the
environment variable PERFBENCH_RSS_FD names an inherited file descriptor,
the process's own peak resident set (the ``VmHWM`` line of
/proc/self/status, in kB) is written to it just before exit.  The
benchmark reads it there instead of taking ``ru_maxrss`` from ``wait4``,
which on Linux can report the parent's resident set at spawn time.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RSS_FD_ENV = "PERFBENCH_RSS_FD"


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from maskcheck.cli import main as cli_main

    try:
        code = cli_main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        fd = os.environ.get(RSS_FD_ENV)
        if fd:
            os.write(int(fd), f"{peak_rss_kb()}\n".encode("ascii"))
    sys.exit(code)


if __name__ == "__main__":
    main()
