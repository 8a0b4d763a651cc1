"""The handlers of bias, bounds, urem-check, witness and butterfly.

Only `cli._run` loads this module, when it dispatches one of these five
subcommands, so that `census` and `--version` never compile them.  Each
handler computes a `cli.Result`; a ValueError means bad input.  Like
`_render.cmd_classify`, a handler reads every package name off `cli`
when it calls it, so a name replaced there (the traced benchmark run
replaces some) is what runs.
"""

from __future__ import annotations

from . import cli as _cli

# Residue count arrays are omitted from bias output above this q.
FULL_COUNTS_MAX_Q = 1 << 16


def cmd_bias(args) -> _cli.Result:
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
    return _cli.Result(doc, lambda: [
        f"bias profile of {{0..{profile.n_values - 1}}} mod {profile.q}",
        f"  min count: {profile.min_count}   max count: {profile.max_count}",
        f"  ratio: {profile.ratio_str}   divides exactly: {profile.divides_exactly}",
        f"  bounds [floor, ceil] = [{profile.floor_bound}, {profile.ceil_bound}]"
        f"   verified: {bounds_ok}",
    ], csv=csv, alarm=None if bounds_ok else "residue counts violate the floor/ceil bounds")


def cmd_bounds(args) -> _cli.Result:
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
    return _cli.Result(doc, lambda: [
        f"q={cfg.q} at width {cfg.width}: {verdict} "
        f"(2q = {2 * cfg.q} vs 2^w = {1 << cfg.width})",
        f"intermediate x + q - s1 ranges over [1, {2 * cfg.q})",
        f"corner checks ok: {corners_ok}",
    ], alarm=None if corners_ok else "no-overflow corner check failed")


def cmd_urem_check(args) -> _cli.Result:
    cfg = _cli.WidthConfig(args.q, args.w)
    if args.samples < 1:
        raise ValueError(f"samples must be >= 1, got {args.samples}")
    cfg.require_admissible()
    q = args.q
    mode = "exhaustive" if args.exhaustive or q * q <= args.samples else "sampled"
    n_pairs = q * q if mode == "exhaustive" else args.samples
    if n_pairs > _cli.UREM_MAX_PAIRS:
        raise ValueError(
            f"{n_pairs} pairs to check, above the cap of {_cli.UREM_MAX_PAIRS}")
    if mode == "sampled" and q > 1 << 63:
        raise ValueError(f"q={q} is above 2^63, but sampled residues "
                         "are drawn as int64")
    import numpy as np

    from ._steps import steps

    rng = _cli.stream_rng(args.seed, "urem-check") if mode == "sampled" else None
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
    return _cli.Result(doc, lambda: [
        f"urem encoding check at q={q}, width {args.w} ({mode}, "
        f"{n_pairs} pairs, seed {args.seed})",
        f"  mismatches vs ring subtraction: {mismatches}",
        f"  round-trip failures: {round_trip_failures}",
    ], alarm=alarm)


def cmd_witness(args) -> _cli.Result:
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
    return _cli.Result(doc, lambda: [
        f"indicator-of-zero witness at q={wire.q}",
        f"verdict: {verdict.value}",
        f"mutual information: {mi.bits} bits (exactly zero: {mi.is_zero})",
        "a constant-marginal wire that is not value-independent: the "
        "conservative gap is real at this modulus",
    ])


def cmd_butterfly(args) -> _cli.Result:
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
    return _cli.Result(doc, human, csv=lambda: [("tap", "verdict", "count"), *(
        (tap, verdict, n) for tap in sorted(taps) for verdict, n in taps[tap].items()
    )], alarm=alarm)
