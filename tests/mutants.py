"""A catalogue of mutants, each one small edit that a named test must catch.

    python tests/mutants.py            # run every mutant
    python tests/mutants.py NAME ...   # run the named mutants

Each entry is (name, file, exact old text, new text, test ids).  The
runner copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, first runs every named test there unmutated (each must pass),
then for each mutant applies its one edit to a fresh copy and runs its
named tests, each of which must fail.  An id without a parameter suffix
counts as failed when any of its parametrized cases fails.  A mutant that
hangs fails its tests at the conftest wall limit.  It prints one line per
mutant and exits 1 if any mutant survives.

`tests/test_mutants.py` (tier-1) checks only that each old text occurs
exactly once in its file and that each named test is defined, so a change
to the code updates this catalogue instead of losing a mutant.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


CLI = "src/maskcheck/cli.py"
RNGBIAS = "src/maskcheck/rngbias.py"
OUT_OF_MEMORY = ("tests/test_cli.py::TestCensus::test_out_of_memory_exits_2",
                 "tests/test_cli_fuzz.py::test_out_of_memory_exits_2")
TAMPERED_RUNS = "tests/test_rngbias.py::TestRejection::test_tampered_runs"
KNOWN_PROFILES = ("tests/test_rngbias.py::TestKnownProfiles::test_twelve_bit_rng_vs_3329",
                  "tests/test_rngbias.py::TestKnownProfiles::test_4096_mod_5")

WIRES = "src/maskcheck/wires.py"
BLOCK_COUNTS = ("tests/test_wires.py::TestDenseKernel::test_block_marginals_match_reparam_histograms",
                "tests/test_cli.py::TestClassify::test_residue_stdout_same_in_blocks_on_threads")

MUTANTS = [
    # The hook that freezes the heap at exit.
    Mutant("exit-hook-removed", CLI,
           "        _exit_hook = atexit.register(gc.freeze)\n",
           "        _exit_hook = gc.freeze\n",
           ("tests/test_cli.py::TestExitFreeze::test_frozen_at_exit_by_one_hook",)),
    Mutant("exit-hook-every-call", CLI,
           "    if _exit_hook is None:\n",
           "    if True:\n",
           ("tests/test_cli.py::TestExitFreeze::test_frozen_at_exit_by_one_hook",)),
    # The out-of-memory backstop.
    Mutant("out-of-memory-unhandled", CLI,
           "    except MemoryError as exc:",
           "    except ZeroDivisionError as exc:",
           OUT_OF_MEMORY),
    # `verify_bounds` and the count runs it reads.
    Mutant("verify-start-only", RNGBIAS,
           "for r in (start, stop - 1)",
           "for r in (start,)",
           (TAMPERED_RUNS + "[q100-first-run-end-off-by-one]",)),
    Mutant("verify-no-order-check", RNGBIAS,
           "if start != end or stop <= start or any(",
           "if stop <= start or any(",
           (TAMPERED_RUNS + "[q100-overlap]", TAMPERED_RUNS + "[q100-gap]",
            TAMPERED_RUNS + "[q100-gap-at-0]")),
    Mutant("verify-no-empty-check", RNGBIAS,
           "if start != end or stop <= start or any(",
           "if start != end or any(",
           (TAMPERED_RUNS + "[q100-backward]", TAMPERED_RUNS + "[q100-empty]")),
    Mutant("verify-no-coverage-check", RNGBIAS,
           "    return end == q\n",
           "    return True\n",
           ("tests/test_rngbias.py::TestRejection::test_missing_residue",)),
    Mutant("verify-division-off-by-one", RNGBIAS,
           "count != (n - 1 - r) // q + 1",
           "count != (n - r) // q + 1",
           KNOWN_PROFILES),
    Mutant("count-runs-low-count", RNGBIAS,
           "[(0, b, a + 1), (b, self.q, a)]",
           "[(0, b, a), (b, self.q, a)]",
           KNOWN_PROFILES + ("tests/test_rngbias.py::TestClosedFormAgainstBruteForce::test_grid",)),
    # The multi-digit chunk check and the block count of residue marginals.
    Mutant("digit-run-guard-removed", WIRES,
           "    if arr.size != runs:\n",
           "    if False:\n",
           ("tests/test_wire_parse.py::test_separator_pitfalls_match_reference"
            "[blank-value-and-leading-zero]",)),
    Mutant("newline-not-counted", WIRES,
           'for c in b"\\t\\n\\r")',
           'for c in b"\\t\\r")',
           ("tests/test_wire_parse.py::test_pinned_chunk_and_window_edges[whitespace-around-cut]",)),
    Mutant("count-block-rows-reversed", WIRES,
           "for row, line in zip(counts, cells):",
           "for row, line in zip(counts[::-1], cells):",
           BLOCK_COUNTS),
    Mutant("count-block-no-minlength", WIRES,
           "row[:] = np.bincount(line, minlength=alphabet)",
           "row[:] = np.bincount(line)",
           BLOCK_COUNTS),
    Mutant("count-block-wrapped-view-shifted", WIRES,
           "diagonals(q * q - rows * q + split, q - split)",
           "diagonals(q * q - rows * q + split - 1, q - split)",
           BLOCK_COUNTS),
]

FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests",
                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(tree: Path, ids) -> tuple[set[str], str]:
    """The ids of the tests that failed, and pytest's output."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True, timeout=900)
    return set(FAILED.findall(proc.stdout)), proc.stdout


def failed(test_id: str, failures: set[str]) -> bool:
    return any(f == test_id or f.startswith(test_id + "[") for f in failures)


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        ids = sorted({t for m in chosen for t in m.tests})
        failures, output = run_tests(clean, ids)
        if failures or "passed" not in output:
            print(f"named tests fail without a mutant:\n{output[-3000:]}")
            return 1
        survivors = 0
        for m in chosen:
            tree = Path(tmp) / m.name
            copy_tree(tree)
            target = tree / m.path
            text = target.read_text()
            assert text.count(m.old) == 1, (m.name, "old text must occur once")
            target.write_text(text.replace(m.old, m.new))
            failures, _ = run_tests(tree, m.tests)
            alive = [t for t in m.tests if not failed(t, failures)]
            survivors += bool(alive)
            print(f"{'SURVIVED' if alive else 'killed  '} {m.name}"
                  + (f"  (passed: {', '.join(alive)})" if alive else ""), flush=True)
            shutil.rmtree(tree)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
