"""Command-line front end for every analysis in the package.

Subcommands: classify, census, bias, bounds, urem-check, witness,
butterfly.  Every subcommand supports --format json|csv|human; JSON output
carries a versioned "schema" field and is byte-identical across runs for
identical arguments (including worker counts and seeds).

Exit codes: 0 success (any verdict counts as success for classify),
2 malformed input or invalid parameters, 3 a theory-contradicting result
(a soundness violation, an encoding mismatch, a bias bound failure).  Code
3 never occurs in a correct build; CI should treat it as an alarm, not a
test failure.  A reader that closes stdout early does not change the code;
a stdout that fails otherwise (a full disk, say) exits 2.  An interrupt
(Ctrl-C) exits 130 with one "error: interrupted" line and no traceback.
"""

from __future__ import annotations

import argparse
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

# Residue count arrays are omitted from bias output above this q.
FULL_COUNTS_MAX_Q = 1 << 16

# urem-check checks its pairs (q^2, or --samples) a step at a time: the cap
# bounds the run's time, not what it holds.  Larger runs are refused up front.
UREM_MAX_PAIRS = 1 << 24

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
# Subcommands: each computes a Result; a ValueError means bad input.
# ---------------------------------------------------------------------------


def cmd_classify(args) -> Result:
    from ._render import cmd_classify

    return cmd_classify(args)


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


def cmd_bias(args) -> Result:
    profile = _cli.bias_profile(args.n, args.q)
    bounds_ok = _cli.verify_bounds(profile)
    doc = {
        "n": profile.n_values,
        "q": profile.q,
        "min_count": profile.min_count,
        "max_count": profile.max_count,
        "ratio": profile.ratio_str,
        "divides_exactly": profile.divides_exactly,
        "floor_bound": profile.floor_bound,
        "ceil_bound": profile.ceil_bound,
        "bounds_verified": bounds_ok,
    }
    csv = None
    if profile.q <= FULL_COUNTS_MAX_Q:
        doc["counts"] = counts = profile.counts
        csv = lambda: [("residue", "count"), *enumerate(counts)]
    else:
        doc["counts_omitted"] = f"q > {FULL_COUNTS_MAX_Q}, summary only"
    return Result(doc, lambda: [
        f"bias profile of {{0..{profile.n_values - 1}}} mod {profile.q}",
        f"  min count: {profile.min_count}   max count: {profile.max_count}",
        f"  ratio: {profile.ratio_str}   divides exactly: {profile.divides_exactly}",
        f"  bounds [floor, ceil] = [{profile.floor_bound}, {profile.ceil_bound}]"
        f"   verified: {bounds_ok}",
    ], csv=csv, alarm=None if bounds_ok else "residue counts violate the floor/ceil bounds")


def cmd_bounds(args) -> Result:
    cfg = _cli.WidthConfig(args.q, args.w)
    # Corner inputs of the no-overflow range double as a smoke check.
    corners_ok = all(_cli.no_overflow_bounds(cfg.q, 0, cfg.q - 1)
                     + _cli.no_overflow_bounds(cfg.q, cfg.q - 1, 0))
    doc = {
        "q": cfg.q,
        "width": cfg.width,
        "admissible": cfg.admissible,
        "two_q": 2 * cfg.q,
        "width_capacity": 1 << cfg.width,
        "intermediate_min": 1,
        "intermediate_max_exclusive": 2 * cfg.q,
        "corner_checks_ok": corners_ok,
    }
    verdict = "admissible" if cfg.admissible else "NOT admissible"
    return Result(doc, lambda: [
        f"q={cfg.q} at width {cfg.width}: {verdict} "
        f"(2q = {2 * cfg.q} vs 2^w = {1 << cfg.width})",
        f"intermediate x + q - s1 ranges over [1, {2 * cfg.q})",
        f"corner checks ok: {corners_ok}",
    ], alarm=None if corners_ok else "no-overflow corner check failed")


def cmd_urem_check(args) -> Result:
    cfg = _cli.WidthConfig(args.q, args.w)
    if args.samples < 1:
        raise ValueError(f"samples must be >= 1, got {args.samples}")
    cfg.require_admissible()
    q = args.q
    mode = "exhaustive" if args.exhaustive or q * q <= args.samples else "sampled"
    n_pairs = q * q if mode == "exhaustive" else args.samples
    if n_pairs > UREM_MAX_PAIRS:
        raise ValueError(
            f"{n_pairs} pairs to check, above the cap of {UREM_MAX_PAIRS}")
    if mode == "sampled" and q > 1 << 63:
        raise ValueError(f"q={q} is above 2^63, but sampled residues "
                         "are drawn as int64")
    import numpy as np

    from ._steps import steps

    rng = stream_rng(args.seed, "urem-check") if mode == "sampled" else None
    mismatches = 0
    round_trip_failures = 0
    for _, rows in steps(1, n_pairs, 1):
        if mode == "exhaustive":
            x, s1 = np.divmod(np.arange(rows.start, rows.stop), q)
        else:
            x, s1 = rng.integers(0, q, size=(2, rows.stop - rows.start))
        if 2 * q >= 1 << 63:  # x + q would wrap in int64
            x, s1 = x.astype(object), s1.astype(object)
        s0 = _cli.urem_reparam(cfg, x, s1)
        mismatches += int(np.count_nonzero(s0 != (x - s1) % q))
        round_trip_failures += int(np.count_nonzero(_cli.urem_recombine(cfg, s0, s1) != x))
    doc = {
        "q": q,
        "width": args.w,
        "mode": mode,
        "seed": args.seed,
        "pairs_checked": n_pairs,
        "mismatches": mismatches,
        "round_trip_failures": round_trip_failures,
    }
    alarm = None
    if mismatches or round_trip_failures:
        alarm = "word-level encoding disagrees with ring arithmetic"
    return Result(doc, lambda: [
        f"urem encoding check at q={q}, width {args.w} ({mode}, "
        f"{n_pairs} pairs, seed {args.seed})",
        f"  mismatches vs ring subtraction: {mismatches}",
        f"  round-trip failures: {round_trip_failures}",
    ], alarm=alarm)


def cmd_witness(args) -> Result:
    from .wires import wire_json

    wire = _cli.t6_witness(args.q)
    verdict = _cli.classify(wire)
    mi = _cli.mutual_information(wire)
    if args.wire_out:
        try:
            _cli.save_wire(wire, args.wire_out)
        except OSError as exc:
            raise ValueError(f"cannot write {args.wire_out}: {exc}") from exc

    doc = {
        "q": wire.q,
        "verdict": verdict.value,
        "mutual_information_bits": mi.bits,
        "mutual_information_is_zero": mi.is_zero,
        "wire": wire_json(wire),  # its q^2 entries are rendered only by the json output
    }
    return Result(doc, lambda: [
        f"indicator-of-zero witness at q={wire.q}",
        f"verdict: {verdict.value}",
        f"mutual information: {mi.bits} bits (exactly zero: {mi.is_zero})",
        "a constant-marginal wire that is not value-independent: the "
        "conservative gap is real at this modulus",
    ])


def cmd_butterfly(args) -> Result:
    report = _cli.conjecture_sweep(
        q=args.q,
        n_stages=args.stages,
        twiddle_set=args.twiddles,
        secret_roles=tuple(args.roles.split(",")),
        include_adversarial=not args.no_adversarial,
    )
    doc = report.to_dict()
    taps = doc["tap_verdict_counts"]  # only the nonzero counts, in verdict order

    def human():
        yield (f"butterfly sweep: q={report.q}, {report.n_stages} stage(s), "
               f"twiddles {list(report.twiddle_set)}, roles {list(report.secret_roles)}")
        yield f"configurations: {report.n_configurations}"
        yield f"clean: {report.clean}"
        for tap in sorted(taps):
            yield f"  {tap}: {taps[tap]}"
        yield report.note

    alarm = None
    if not report.clean:
        alarm = (f"sweep flagged {len(report.non_constant_marginal)} sharewise "
                 f"non-constant-marginal taps and "
                 f"{len(report.value_independent_adversarial)} "
                 "value-independent recombination probes")
    return Result(doc, human, csv=lambda: [("tap", "verdict", "count"), *(
        (tap, verdict, n) for tap in sorted(taps) for verdict, n in taps[tap].items()
    )], alarm=alarm)


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "human"), default="human",
        help="output format (default: human)",
    )

    def command(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p = command("classify", cmd_classify, "classify a wire-function JSON file")
    p.add_argument("wire", help="path to a wire-function JSON file")

    p = command("census", cmd_census, "exhaustive verdict census at small q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility, must be >= 1; the count "
                        "always runs in one process (default: 1)")

    p = command("bias", cmd_bias, "residue bias of {0..N-1} reduced mod q")
    p.add_argument("--n", type=int, required=True,
                   help="sample-space size N (e.g. 4096 for a 12-bit RNG)")
    p.add_argument("--q", type=int, required=True)

    p = command("bounds", cmd_bounds, "width admissibility and overflow range")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--w", type=int, required=True, help="register width in bits")

    p = command("urem-check", cmd_urem_check,
                "word-level vs ring reparametrization equivalence")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--w", type=int, default=24)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--exhaustive", action="store_true",
                   help="check all q^2 pairs instead of sampling")

    p = command("witness", cmd_witness,
                "the constant-marginal, non-value-independent wire")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--wire-out", default=None,
                   help="also write the wire-function JSON to this path")

    p = command("butterfly", cmd_butterfly, "masked butterfly composition sweep")
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
    if "numpy" not in sys.modules:  # no command calls BLAS: keep its idle pool off a CPU
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return _run(build_parser().parse_args(argv))
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a command it interrupted


def _run(args) -> int:
    try:
        result = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
    sys.exit(main())
