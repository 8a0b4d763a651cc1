"""Command-line front end for every analysis in the package.

Subcommands: classify, census, bias, bounds, urem-check, witness,
butterfly.  Every subcommand supports --format json|csv|human; JSON output
carries a versioned "schema" field and is byte-identical across runs for
identical arguments (including worker counts and seeds).

This module holds the parser, `main`, the output formats and the census
handler.  The parser names each other subcommand's handler by its module
(`_render` for classify, `_commands` for the rest), which `_run` imports
only when it dispatches, so a run compiles no handler but its own.

Exit codes: 0 success (any verdict counts as success for classify),
2 malformed input or invalid parameters, 3 a theory-contradicting result
(a soundness violation, an encoding mismatch, a bias bound failure).  Code
3 never occurs in a correct build; CI should treat it as an alarm, not a
test failure.  A reader that closes stdout early does not change the code;
a stdout that fails otherwise (a full disk, say) exits 2.  A run that runs
out of memory exits 2 with one "error: out of memory" line, and an
interrupt (Ctrl-C) exits 130 with one "error: interrupted" line; neither
prints a traceback.

A process that calls `main` skips the interpreter's final cyclic garbage
collection: `main` registers `gc.freeze` to run at exit, so objects held
in reference cycles at exit are not finalized.  A library caller of
`main` inherits that at its own exit.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING, NamedTuple

from . import __all__ as _PUBLIC, __version__

if TYPE_CHECKING:
    import numpy as np

SCHEMA = "maskcheck/1"

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_THEORY_VIOLATION = 3

# urem-check checks its pairs (q^2, or --samples) a step at a time: the cap
# bounds the run's time, not what it holds.  Larger runs are refused up front.
UREM_MAX_PAIRS = 1 << 24

# The `gc.freeze` that `main` registers with atexit, None until `main` runs.
_exit_hook = None

def __getattr__(name: str):
    """Binds a public name of the package here the first time it is read
    (PEP 562), so that only the runs that use a name import its module.
    Handlers read these names off `_cli` when they call them, so a name
    already bound, here or from outside, is what runs."""
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


_cli = sys.modules[__name__]


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """Named, seeded PRNG stream.

    Each randomized check draws from its own stream keyed by (seed, name),
    so adding one check never perturbs another check's samples.
    """
    import hashlib

    import numpy as np

    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))


class Result(NamedTuple):
    """What one subcommand found, ready to be written in any format.

    `doc` holds the subcommand's own fields; `main` adds "schema" and
    "command".  `human` and `csv` are called only when their format is
    asked for, so large outputs cost nothing in the other formats.  A `doc`
    value is one of three kinds: a JSON value; a zero-argument callable,
    which only the json output calls and which returns a value of the
    other two kinds; or an iterator of str, the value's JSON text in
    pieces.  `csv` gives the rows, header first, that a csv writer quotes;
    without it the csv output is the key,value rows of the scalar fields
    of `doc`.  An `alarm` reports a theory-contradicting result: it goes
    to stderr after the output and sets exit code 3.
    """

    doc: dict
    human: Callable[[], Iterable[str]]
    csv: Callable[[], Iterable[Iterable]] | None = None
    alarm: str | None = None

    @property
    def exit_code(self) -> int:
        return EXIT_THEORY_VIOLATION if self.alarm else EXIT_OK


def _kv_rows(doc: dict):
    """key,value rows of the scalar (str, int, float, bool) fields, by key."""
    yield "key", "value"
    for key in sorted(doc):
        if isinstance(doc[key], (str, int, float)):  # a bool is an int
            yield key, doc[key]


def _emit(result: Result, fmt: str, out) -> None:
    """Write `result` to `out` as json, csv or human lines.

    JSON is written key by key in sorted order; a callable value is called
    first, an iterator's pieces of JSON text are written as they come, and
    a JSON value goes through json.dumps.  The bytes equal
    json.dumps(doc, sort_keys=True, separators=(",", ":")) of the document
    with its callables called and each iterator's joined text parsed, plus
    a newline.  csv rows go through one csv writer, which quotes a field
    holding a comma.
    """
    if fmt == "json":
        out.write("{")
        for i, key in enumerate(sorted(result.doc)):
            out.write(("," if i else "") + json.dumps(key) + ":")
            value = result.doc[key]
            if callable(value):
                value = value()
            if isinstance(value, Iterator):
                for text in value:
                    out.write(text)
            else:
                out.write(json.dumps(value, sort_keys=True, separators=(",", ":")))
        out.write("}\n")
        return
    if fmt == "csv":
        import csv

        rows = result.csv() if result.csv else _kv_rows(result.doc)
        csv.writer(out, lineterminator="\n").writerows(rows)
        return
    for line in result.human():
        out.write(line + "\n")


# ---------------------------------------------------------------------------
# Subcommands: each computes a Result; a ValueError means bad input.  census
# is handled here, classify in `_render`, the others in `_commands`.
# ---------------------------------------------------------------------------


def cmd_census(args) -> Result:
    report = _cli.run_census(args.q, parallelism=args.workers)
    alarm = None
    if report.soundness_violations > 0:
        alarm = (f"census found {report.soundness_violations} soundness "
                 "violations (value-independent wires with non-constant marginals)")
    return Result(report.to_dict(), lambda: [
        f"census at q={report.q}: {report.total_wires} wires",
        f"  value-independent:      {report.count_value_independent}",
        f"  constant marginal:      {report.count_constant_marginal}",
        f"  conservative (CM only): {report.count_conservative}",
        f"  non-constant marginal:  {report.count_non_constant}",
        f"  soundness violations:   {report.soundness_violations}",
        f"  wall time: {report.wall_time_seconds:.2f} s (1 worker(s))",
    ], csv=lambda: [
        ("verdict", "count"),
        ("VALUE_INDEPENDENT", report.count_value_independent),
        ("CONSTANT_MARGINAL_ONLY", report.count_conservative),
        ("NON_CONSTANT_MARGINAL", report.count_non_constant),
    ], alarm=alarm)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def non_negative_int(text: str) -> int:
    """An option value that must be an integer >= 0; argparse names the
    option when it refuses one."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def int_list(text: str) -> tuple[int, ...] | None:
    """An option value of comma-separated integers, None for an empty one;
    argparse names the option when it refuses one."""
    try:
        return tuple(int(part) for part in text.split(",")) if text else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _theory_violation():
    """The TheoryViolation class, or () while the one module that raises
    it, wires, is not loaded: an except clause of () catches nothing."""
    wires = sys.modules.get(f"{__package__}.wires")
    return wires.TheoryViolation if wires else ()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskcheck",
        description="Distributional security checks for first-order "
                    "arithmetic masking over Z/qZ.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = f"{__package__}._commands"
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "human"), default="human",
        help="output format (default: human)",
    )

    def command(name, module, help):
        """A subcommand whose handler, cmd_<name with "_" for "-">, is
        defined in `module`, which `_run` imports when it dispatches."""
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(module=module)
        return p

    p = command("classify", f"{__package__}._render", "classify a wire-function JSON file")
    p.add_argument("wire", help="path to a wire-function JSON file")

    p = command("census", __name__, "exhaustive verdict census at small q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility, must be >= 1; the count "
                        "always runs in one process (default: 1)")

    p = command("bias", commands, "residue bias of {0..N-1} reduced mod q")
    p.add_argument("--n", type=int, required=True,
                   help="sample-space size N (e.g. 4096 for a 12-bit RNG)")
    p.add_argument("--q", type=int, required=True)

    p = command("bounds", commands, "width admissibility and overflow range")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--w", type=int, required=True, help="register width in bits")

    p = command("urem-check", commands,
                "word-level vs ring reparametrization equivalence")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--w", type=int, default=24)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--exhaustive", action="store_true",
                   help="check all q^2 pairs instead of sampling")

    p = command("witness", commands,
                "the constant-marginal, non-value-independent wire")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--wire-out", default=None,
                   help="also write the wire-function JSON to this path")

    p = command("butterfly", commands, "masked butterfly composition sweep")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--stages", type=int, default=1)
    p.add_argument("--twiddles", type=int_list, default=None,
                   help="comma-separated twiddle set, distinct and nonzero mod q "
                        "(default: all nonzero)")
    p.add_argument("--roles", choices=("a,b", "b,a", "a", "b"), default="a,b",
                   metavar="ROLES", help="secret roles: a,b (default), b,a, a or b")
    p.add_argument("--no-adversarial", action="store_true",
                   help="skip the hypothetical recombination probes")

    return parser


def main(argv=None) -> int:
    """Run the subcommand of `argv` (default: sys.argv[1:]) and return its
    exit code.  At interpreter exit `gc.freeze` moves every live object
    into the permanent generation, so the final cyclic collection does not
    walk the module graph (numpy's above all); objects held in reference
    cycles are then not finalized.  The hook is registered once per
    process, however often `main` runs, and changes nothing before exit."""
    global _exit_hook
    if _exit_hook is None:
        _exit_hook = atexit.register(gc.freeze)
    if "numpy" not in sys.modules:  # no command calls BLAS: keep its idle pool off a CPU
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return _run(build_parser().parse_args(argv))
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a command it interrupted


def _run(args) -> int:
    handler = getattr(importlib.import_module(args.module),
                      "cmd_" + args.command.replace("-", "_"))
    try:
        result = handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as exc:  # a backstop: inputs are to be refused before this
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_BAD_INPUT
    except _theory_violation() as exc:
        print(f"theory violation: {exc}", file=sys.stderr)
        return EXIT_THEORY_VIOLATION
    result.doc.update(schema=SCHEMA, command=args.command)
    try:
        _emit(result, args.format, sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # Point stdout at devnull so the flush at interpreter exit does not
        # fail a second time.  A reader that closed stdout early is no error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    if result.alarm:
        print(f"error: {result.alarm}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    # Under `python -m maskcheck.cli` the handler modules' `from . import cli`
    # must bind this module, not compile a second copy of it.
    sys.modules.setdefault(f"{__package__}.cli", _cli)
    sys.exit(main())
