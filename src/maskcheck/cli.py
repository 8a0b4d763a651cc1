"""Command-line front end for every analysis in the package.

Subcommands: classify, census, bias, bounds, urem-check, witness,
butterfly.  Every subcommand supports --format json|csv|human; JSON output
carries a versioned "schema" field and is byte-identical across runs for
identical arguments (including worker counts and seeds).

Exit codes: 0 success (any verdict counts as success for classify),
2 malformed input or invalid parameters, 3 a theory-contradicting result
(a soundness violation, an encoding mismatch, a bias bound failure).  Code
3 never occurs in a correct build; CI should treat it as an alarm, not a
test failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .bitvec import WidthConfig, no_overflow_bounds, urem_recombine, urem_reparam
from .butterfly import conjecture_sweep
from .census import run_census
from .rngbias import bias_profile, verify_bounds
from .wires import (
    TheoryViolation,
    WireFormatError,
    classify,
    load_wire,
    marginal_table,
    mutual_information,
    t6_witness,
    save_wire,
    wire_to_dict,
)

SCHEMA = "maskcheck/1"

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_THEORY_VIOLATION = 3

# Residue count arrays are omitted from bias output above this q.
FULL_COUNTS_MAX_Q = 1 << 16

WORKERS_ENV = "MASKCHECK_WORKERS"


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """Named, seeded PRNG stream.

    Each randomized check draws from its own stream keyed by (seed, name),
    so adding one check never perturbs another check's samples.
    """
    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _emit_json(doc: dict, out) -> None:
    out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    out.write("\n")


def _emit_kv_csv(doc: dict, out) -> None:
    out.write("key,value\n")
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
            value = '"' + value.replace('"', '""') + '"'
        out.write(f"{key},{value}\n")


def _emit_human(lines, out) -> None:
    for line in lines:
        out.write(line + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args, out) -> int:
    try:
        wire = load_wire(args.wire)
    except OSError as exc:
        print(f"error: cannot read {args.wire}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except WireFormatError as exc:
        print(f"error: {args.wire}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    verdict = classify(wire)
    marginals = marginal_table(wire)
    mi = mutual_information(wire)
    doc = {
        "schema": SCHEMA,
        "command": "classify",
        "q": wire.q,
        "alphabet": wire.alphabet_size,
        "verdict": verdict.value,
        "marginals": marginals.tolist(),
        "mutual_information_bits": mi.bits,
        "mutual_information_is_zero": mi.is_zero,
    }
    if args.format == "json":
        _emit_json(doc, out)
    elif args.format == "csv":
        flat = dict(doc)
        flat.pop("marginals")
        _emit_kv_csv(flat, out)
    else:
        lines = [
            f"wire: q={wire.q} alphabet={wire.alphabet_size}",
            f"verdict: {verdict.value}",
            f"mutual information: {mi.bits} bits (exactly zero: {mi.is_zero})",
            "marginal histograms (one row per secret):",
        ]
        lines += [f"  x={x}: {row}" for x, row in enumerate(doc["marginals"])]
        _emit_human(lines, out)
    return EXIT_OK


def cmd_census(args, out) -> int:
    try:
        report = run_census(args.q, parallelism=args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    doc = {"schema": SCHEMA, "command": "census"}
    doc.update(report.to_dict(include_wall_time=False))
    if args.format == "json":
        _emit_json(doc, out)
    elif args.format == "csv":
        out.write("verdict,count\n")
        out.write(f"VALUE_INDEPENDENT,{report.count_value_independent}\n")
        out.write(f"CONSTANT_MARGINAL_ONLY,{report.count_conservative}\n")
        out.write(f"NON_CONSTANT_MARGINAL,{report.count_non_constant}\n")
    else:
        _emit_human([
            f"census at q={report.q}: {report.total_wires} wires",
            f"  value-independent:      {report.count_value_independent}",
            f"  constant marginal:      {report.count_constant_marginal}",
            f"  conservative (CM only): {report.count_conservative}",
            f"  non-constant marginal:  {report.count_non_constant}",
            f"  soundness violations:   {report.soundness_violations}",
            f"  wall time: {report.wall_time_seconds:.2f} s "
            f"({args.workers} worker(s))",
        ], out)
    if report.soundness_violations > 0:
        print(
            f"error: census found {report.soundness_violations} soundness "
            "violations (value-independent wires with non-constant marginals)",
            file=sys.stderr,
        )
        return EXIT_THEORY_VIOLATION
    return EXIT_OK


def cmd_bias(args, out) -> int:
    try:
        profile = bias_profile(args.n, args.q)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    bounds_ok = verify_bounds(profile)
    doc = {
        "schema": SCHEMA,
        "command": "bias",
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
    if profile.q <= FULL_COUNTS_MAX_Q:
        doc["counts"] = [int(c) for c in profile.counts]
    else:
        doc["counts_omitted"] = f"q > {FULL_COUNTS_MAX_Q}, summary only"
    if args.format == "json":
        _emit_json(doc, out)
    elif args.format == "csv":
        if profile.q <= FULL_COUNTS_MAX_Q:
            out.write("residue,count\n")
            for r, c in enumerate(profile.counts):
                out.write(f"{r},{int(c)}\n")
        else:
            flat = dict(doc)
            _emit_kv_csv(flat, out)
    else:
        lines = [
            f"bias profile of {{0..{profile.n_values - 1}}} mod {profile.q}",
            f"  min count: {profile.min_count}   max count: {profile.max_count}",
            f"  ratio: {profile.ratio_str}   divides exactly: {profile.divides_exactly}",
            f"  bounds [floor, ceil] = [{profile.floor_bound}, {profile.ceil_bound}]"
            f"   verified: {bounds_ok}",
        ]
        _emit_human(lines, out)
    if not bounds_ok:
        print("error: residue counts violate the floor/ceil bounds", file=sys.stderr)
        return EXIT_THEORY_VIOLATION
    return EXIT_OK


def cmd_bounds(args, out) -> int:
    try:
        cfg = WidthConfig(args.q, args.w)
        # Corner inputs of the no-overflow range double as a smoke check.
        lo_ok = no_overflow_bounds(args.q, 0, args.q - 1)
        hi_ok = no_overflow_bounds(args.q, args.q - 1, 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    corners_ok = all(lo_ok) and all(hi_ok)
    doc = {
        "schema": SCHEMA,
        "command": "bounds",
        "q": cfg.q,
        "width": cfg.width,
        "admissible": cfg.admissible,
        "two_q": 2 * cfg.q,
        "width_capacity": 1 << cfg.width,
        "intermediate_min": 1,
        "intermediate_max_exclusive": 2 * cfg.q,
        "corner_checks_ok": corners_ok,
    }
    if args.format == "json":
        _emit_json(doc, out)
    elif args.format == "csv":
        _emit_kv_csv(doc, out)
    else:
        verdict = "admissible" if cfg.admissible else "NOT admissible"
        _emit_human([
            f"q={cfg.q} at width {cfg.width}: {verdict} "
            f"(2q = {2 * cfg.q} vs 2^w = {1 << cfg.width})",
            f"intermediate x + q - s1 ranges over [1, {2 * cfg.q})",
            f"corner checks ok: {corners_ok}",
        ], out)
    if not corners_ok:
        print("error: no-overflow corner check failed", file=sys.stderr)
        return EXIT_THEORY_VIOLATION
    return EXIT_OK


def cmd_urem_check(args, out) -> int:
    try:
        cfg = WidthConfig(args.q, args.w)
        if args.samples < 1:
            raise ValueError(f"samples must be >= 1, got {args.samples}")
        if not cfg.admissible:
            raise ValueError(
                f"width {args.w} inadmissible for q={args.q} (needs 2q < 2^w)"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    q = args.q
    exhaustive = args.exhaustive or q * q <= args.samples
    if exhaustive:
        pairs = ((x, s1) for x in range(q) for s1 in range(q))
        n_pairs = q * q
        mode = "exhaustive"
    else:
        rng = stream_rng(args.seed, "urem-check")
        xs = rng.integers(0, q, size=args.samples)
        s1s = rng.integers(0, q, size=args.samples)
        pairs = zip(xs.tolist(), s1s.tolist())
        n_pairs = args.samples
        mode = "sampled"
    mismatches = 0
    round_trip_failures = 0
    for x, s1 in pairs:
        s0 = urem_reparam(cfg, x, s1)
        if s0 != (x - s1) % q:
            mismatches += 1
        if urem_recombine(cfg, s0, s1) != x:
            round_trip_failures += 1
    doc = {
        "schema": SCHEMA,
        "command": "urem-check",
        "q": q,
        "width": args.w,
        "mode": mode,
        "seed": args.seed,
        "pairs_checked": n_pairs,
        "mismatches": mismatches,
        "round_trip_failures": round_trip_failures,
    }
    if args.format == "json":
        _emit_json(doc, out)
    elif args.format == "csv":
        _emit_kv_csv(doc, out)
    else:
        _emit_human([
            f"urem encoding check at q={q}, width {args.w} ({mode}, "
            f"{n_pairs} pairs, seed {args.seed})",
            f"  mismatches vs ring subtraction: {mismatches}",
            f"  round-trip failures: {round_trip_failures}",
        ], out)
    if mismatches or round_trip_failures:
        print("error: word-level encoding disagrees with ring arithmetic",
              file=sys.stderr)
        return EXIT_THEORY_VIOLATION
    return EXIT_OK


def cmd_witness(args, out) -> int:
    try:
        wire = t6_witness(args.q)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    verdict = classify(wire)
    mi = mutual_information(wire)
    if args.wire_out:
        save_wire(wire, args.wire_out)
    doc = {
        "schema": SCHEMA,
        "command": "witness",
        "q": wire.q,
        "verdict": verdict.value,
        "mutual_information_bits": mi.bits,
        "mutual_information_is_zero": mi.is_zero,
        "wire": wire_to_dict(wire),
    }
    if args.format == "json":
        _emit_json(doc, out)
    elif args.format == "csv":
        flat = dict(doc)
        flat.pop("wire")
        _emit_kv_csv(flat, out)
    else:
        _emit_human([
            f"indicator-of-zero witness at q={wire.q}",
            f"verdict: {verdict.value}",
            f"mutual information: {mi.bits} bits (exactly zero: {mi.is_zero})",
            "a constant-marginal wire that is not value-independent: the "
            "conservative gap is real at this modulus",
        ], out)
    return EXIT_OK


def cmd_butterfly(args, out) -> int:
    try:
        twiddles = None
        if args.twiddles:
            twiddles = tuple(int(t) for t in args.twiddles.split(","))
        report = conjecture_sweep(
            q=args.q,
            n_stages=args.stages,
            twiddle_set=twiddles,
            secret_roles=tuple(args.roles.split(",")),
            include_adversarial=not args.no_adversarial,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    doc = {"schema": SCHEMA, "command": "butterfly"}
    doc.update(report.to_dict())
    if args.format == "json":
        _emit_json(doc, out)
    elif args.format == "csv":
        out.write("tap,verdict,count\n")
        for tap in sorted(report.tap_verdict_counts):
            for verdict, n in report.tap_verdict_counts[tap].items():
                if n:
                    out.write(f"{tap},{verdict.value},{n}\n")
    else:
        lines = [
            f"butterfly sweep: q={report.q}, {report.n_stages} stage(s), "
            f"twiddles {list(report.twiddle_set)}, roles {list(report.secret_roles)}",
            f"configurations: {report.n_configurations}",
            f"clean: {report.clean}",
        ]
        for tap in sorted(report.tap_verdict_counts):
            counts = {
                v.value: n for v, n in report.tap_verdict_counts[tap].items() if n
            }
            lines.append(f"  {tap}: {counts}")
        lines.append(report.note)
        _emit_human(lines, out)
    if not report.clean:
        print(
            "error: sweep flagged "
            f"{len(report.non_constant_marginal)} sharewise non-constant-marginal "
            f"taps and {len(report.value_independent_adversarial)} "
            "value-independent recombination probes",
            file=sys.stderr,
        )
        return EXIT_THEORY_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_format(parser):
    parser.add_argument(
        "--format", choices=("json", "csv", "human"), default="human",
        help="output format (default: human)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskcheck",
        description="Distributional security checks for first-order "
                    "arithmetic masking over Z/qZ.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a wire-function JSON file")
    p.add_argument("wire", help="path to a wire-function JSON file")
    _add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("census", help="exhaustive verdict census at small q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--workers", type=int, default=_default_workers(),
                   help=f"most worker processes, further capped by usable CPUs "
                        f"(default: ${WORKERS_ENV} or 1)")
    _add_format(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("bias", help="residue bias of {0..N-1} reduced mod q")
    p.add_argument("--n", type=int, required=True,
                   help="sample-space size N (e.g. 4096 for a 12-bit RNG)")
    p.add_argument("--q", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("bounds", help="width admissibility and overflow range")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--w", type=int, required=True, help="register width in bits")
    _add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("urem-check",
                       help="word-level vs ring reparametrization equivalence")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--w", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--exhaustive", action="store_true",
                   help="check all q^2 pairs instead of sampling")
    _add_format(p)
    p.set_defaults(func=cmd_urem_check)

    p = sub.add_parser("witness",
                       help="the constant-marginal, non-value-independent wire")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--wire-out", default=None,
                   help="also write the wire-function JSON to this path")
    _add_format(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("butterfly", help="masked butterfly composition sweep")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--stages", type=int, default=1)
    p.add_argument("--twiddles", default=None,
                   help="comma-separated twiddle set (default: all nonzero)")
    p.add_argument("--roles", default="a,b",
                   help="comma-separated secret roles (default: a,b)")
    p.add_argument("--no-adversarial", action="store_true",
                   help="skip the hypothetical recombination probes")
    _add_format(p)
    p.set_defaults(func=cmd_butterfly)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except TheoryViolation as exc:
        print(f"theory violation: {exc}", file=sys.stderr)
        return EXIT_THEORY_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
