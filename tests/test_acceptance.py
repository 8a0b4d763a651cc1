"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `pytest -v` alone shows the same information through test outcomes.
Every tolerance and time budget is pinned here, not configurable.
"""

import io
import json
import time
from contextlib import redirect_stdout
from itertools import product

import numpy as np
import pytest

import maskcheck as mc
from maskcheck.cli import main as cli_main

from test_wires import naive_mi_bits

SEED = 20260810

# Constant-marginal counts pinned from the combinatorial formula
# sum_k C(q,k)^q, computed before the census was built.
PINNED_CM_COUNTS = {2: 6, 3: 56, 4: 1810, 5: 206_252}

AND_WIRE_MI_BITS = 0.3112781244591328

# One line per criterion, echoed into the terminal summary by conftest.
CRITERION_LINES = []


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, f"criterion {criterion} failed: {detail}"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def test_c01_t5_mlkem_instance():
    t0 = time.perf_counter()
    code, out = run_cli("bias", "--n", "4096", "--q", "3329", "--format", "json")
    elapsed = time.perf_counter() - t0
    doc = json.loads(out)
    ok = (
        code == 0
        and doc["counts"][0] == 2
        and doc["counts"][767] == 1
        and doc["ratio"] == "2/1"
        and elapsed < 1.0
    )
    report(1, ok, f"bias(4096, 3329): count(0)={doc['counts'][0]}, "
                  f"count(767)={doc['counts'][767]}, ratio={doc['ratio']}, "
                  f"{elapsed:.3f}s")


def test_c02_t5_universal_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    violations = 0
    checked = 0
    tallied = 0
    # 950 pairs log-uniform over the full ranges, 50 with q | N so the
    # equality branch is never vacuous, all from one seeded stream.  Every
    # count is bounded by [min_count, max_count], so bounding those bounds
    # covers all q residues; every profile goes through verify_bounds, and
    # those with q <= 2^16 and N <= 2^22 are also compared with a tally of
    # all N values.
    for i in range(1000):
        if i < 950:
            q = min(1 << 24, max(1, int(2.0 ** rng.uniform(0.0, 24.0))))
            n = min(1 << 32, max(1, int(2.0 ** rng.uniform(0.0, 32.0))))
        else:
            q = min(1 << 20, max(1, int(2.0 ** rng.uniform(0.0, 20.0))))
            n = q * int(rng.integers(1, 4096))
        p = mc.bias_profile(n, q)
        lo, hi = n // q, -(-n // q)
        if not (lo <= p.min_count and p.max_count <= hi):
            violations += 1
        if n % q == 0 and not (p.min_count == p.max_count == n // q):
            violations += 1
        if not mc.verify_bounds(p):
            violations += 1
        if q <= (1 << 16) and n <= (1 << 22):
            tallied += 1
            if not np.array_equal(p.counts, mc.brute_force_counts(n, q)):
                violations += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checked == 1000 and elapsed < 10.0
    report(2, ok, f"{checked} seeded (N, q) pairs, every count re-verified "
                  f"({tallied} by direct tally), {violations} "
                  f"bound violations, {elapsed:.2f}s")


def test_c03_t4_width_instances():
    details = []
    instances_ok = True
    for q, expected in ((3329, True), (8380417, True), (8388608, False)):
        code, out = run_cli("bounds", "--q", str(q), "--w", "24",
                            "--format", "json")
        admissible = json.loads(out)["admissible"]
        instances_ok &= code == 0 and admissible is expected
        details.append(f"({q}, 24) admissible={admissible}")
    range_violations = 0
    for q in range(1, 65):
        for x in range(q):
            for s1 in range(q):
                lower_ok, upper_ok = mc.no_overflow_bounds(q, x, s1)
                if not (lower_ok and upper_ok):
                    range_violations += 1
    ok = instances_ok and range_violations == 0
    report(3, ok, ", ".join(details) + f"; exhaustive range check q<=64: "
                  f"{range_violations} violations")


def test_c04_t1_soundness_censuses():
    details = []
    ok = True
    for q, expected_total in ((2, 16), (3, 512), (4, 65_536), (5, 33_554_432)):
        r = mc.run_census(q)
        ok &= r.total_wires == expected_total and r.soundness_violations == 0
        details.append(f"q={q}: {r.total_wires} wires, "
                       f"{r.soundness_violations} violations, "
                       f"{r.wall_time_seconds:.2f}s")
        if q == 5:
            ok &= r.wall_time_seconds < 300.0
            for workers in (2, 3):
                ok &= mc.run_census(q, parallelism=workers).to_dict() == r.to_dict()
    report(4, ok, "; ".join(details) + "; counts worker-independent")


def test_c05_census_formula_cross_check():
    ok = True
    details = []
    for q, pinned in PINNED_CM_COUNTS.items():
        formula = mc.constant_marginal_count_formula(q)
        census = mc.run_census(q).count_constant_marginal
        ok &= formula == pinned == census
        details.append(f"q={q}: formula={formula}, census={census}, "
                       f"pinned={pinned}")
    report(5, ok, "; ".join(details))


def test_c06_t6_universality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 6)
    ok = True
    for q in (2, 3, 5, 17, 257, 3329):
        w = mc.t6_witness(q)
        ok &= mc.classify(w) is mc.Verdict.CONSTANT_MARGINAL_ONLY
        for _ in range(100):
            x, xp = rng.integers(0, q, size=2).tolist()
            ok &= mc.translation_bijection_check(w, int(x), int(xp))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(6, ok, f"witness CONSTANT_MARGINAL_ONLY at q in "
                  f"{{2,3,5,17,257,3329}}, 100 translation checks each, "
                  f"{elapsed:.2f}s")


def test_c07_reparam_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 7)
    failures = 0
    n = 100_000
    for k in (1, 8, 24, 64):
        xs = rng.integers(0, 1 << min(k, 63), size=n, dtype=np.uint64)
        ss = rng.integers(0, 1 << min(k, 63), size=n, dtype=np.uint64)
        if k == 64:  # top bit via a second draw; integers() maxes at 2^63
            xs |= rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
            ss |= rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
        for x, s1 in zip(xs.tolist(), ss.tolist()):
            if not mc.bool_reparam_round_trip(mc.BitWord(k, x), mc.BitWord(k, s1)):
                failures += 1
    qs = [2, 5, 3329, 8380417] + [int(q) for q in
                                  rng.integers(1, 1 << 31, size=2)]
    for q in qs:
        m = mc.Modulus(q)
        xs = rng.integers(0, q, size=n)
        ss = rng.integers(0, q, size=n)
        for x, s1 in zip(xs.tolist(), ss.tolist()):
            if not mc.arith_reparam_round_trip(m.element(x), m.element(s1)):
                failures += 1
    bij_failures = 0
    for q in range(1, 65):
        for s1 in range(q):
            if not mc.arith_reparam_is_bijection(q, s1):
                bij_failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and bij_failures == 0 and elapsed < 30.0
    report(7, ok, f"{4 * n} Boolean + {len(qs) * n} arithmetic round trips, "
                  f"{failures} failures; exhaustive bijectivity q<=64, "
                  f"{bij_failures} failures; {elapsed:.1f}s")


def test_c08_urem_encoding_equivalence():
    mismatches = 0
    for q in range(1, 65):
        cfg = mc.WidthConfig(q, 24)
        m = mc.Modulus(q)
        for x in range(q):
            for s1 in range(q):
                word = mc.urem_reparam(cfg, x, s1)
                ring = mc.arith_reparam(m.element(x), m.element(s1)).value
                if word != ring or not mc.urem_round_trip(cfg, x, s1):
                    mismatches += 1
    rng = np.random.default_rng(SEED + 8)
    n = 100_000
    for q in (3329, 8380417):
        cfg = mc.WidthConfig(q, 24)
        m = mc.Modulus(q)
        xs = rng.integers(0, q, size=n)
        ss = rng.integers(0, q, size=n)
        for x, s1 in zip(xs.tolist(), ss.tolist()):
            if mc.urem_reparam(cfg, x, s1) != (x - s1) % q:
                mismatches += 1
            if not mc.urem_round_trip(cfg, x, s1):
                mismatches += 1
    ok = mismatches == 0
    report(8, ok, f"exhaustive q<=64 plus {2 * n} sampled pairs at the NIST "
                  f"moduli (w=24): {mismatches} mismatches")


def test_c09_mi_consistency():
    ok = True
    nonzero_on_constant = 0
    zero_flag_mismatches = 0
    for idx in range(512):
        table = [(idx >> p) & 1 for p in range(9)]
        w = mc.make_wire(3, table)
        mi = mc.mutual_information(w)
        cm = mc.has_constant_marginal(w)
        if mi.is_zero != cm:
            zero_flag_mismatches += 1
        if cm and mi.bits != 0.0:
            nonzero_on_constant += 1
    and_wire = mc.wire_from_fn(2, lambda s0, s1: int(s0 == 0 and s1 == 0))
    rederived = naive_mi_bits(2, list(and_wire.table))
    lib = mc.mutual_information(and_wire).bits
    ok = (
        zero_flag_mismatches == 0
        and nonzero_on_constant == 0
        and abs(rederived - AND_WIRE_MI_BITS) < 1e-12
        and abs(lib - AND_WIRE_MI_BITS) < 1e-9
    )
    report(9, ok, f"512 wires at q=3: {zero_flag_mismatches} is_zero "
                  f"mismatches, {nonzero_on_constant} constant-marginal "
                  f"wires with MI != 0.0; q=2 example MI {lib:.10f} vs "
                  f"brute force {rederived:.10f}")


def test_c10_butterfly_conjecture_sweep():
    sharewise_ncm = 0
    adversarial_vi = 0
    n_sweeps = 0
    for q in (2, 3, 5, 7):
        for n_stages in (1, 2, 3):
            rep = mc.conjecture_sweep(q, n_stages)
            n_sweeps += 1
            for tap, counts in rep.tap_verdict_counts.items():
                if mc.is_adversarial_tap(tap):
                    adversarial_vi += counts[mc.Verdict.VALUE_INDEPENDENT]
                else:
                    sharewise_ncm += counts[mc.Verdict.NON_CONSTANT_MARGINAL]
    # masked/plain recombination agreement
    disagreements = 0
    for q in (2, 3, 5, 7):
        for t, a0, a1, b0, b1 in product(range(q), repeat=5):
            st = mc.ButterflyStage(mc.Modulus(q).element(t))
            a = mc.MaskedValue(mc.Modulus(q).element(a0), mc.Modulus(q).element(a1))
            b = mc.MaskedValue(mc.Modulus(q).element(b0), mc.Modulus(q).element(b1))
            cm_, dm_ = mc.butterfly_masked(st, a, b)
            cp, dp = mc.butterfly_plain(st, a.recombine(), b.recombine())
            if cm_.recombine().value != cp.value or dm_.recombine().value != dp.value:
                disagreements += 1
    rng = np.random.default_rng(SEED + 10)
    q = 3329
    m = mc.Modulus(q)
    for t, a0, a1, b0, b1 in rng.integers(0, q, size=(1000, 5)).tolist():
        st = mc.ButterflyStage(m.element(t))
        a = mc.MaskedValue(m.element(a0), m.element(a1))
        b = mc.MaskedValue(m.element(b0), m.element(b1))
        cm_, dm_ = mc.butterfly_masked(st, a, b)
        cp, dp = mc.butterfly_plain(st, a.recombine(), b.recombine())
        if cm_.recombine().value != cp.value or dm_.recombine().value != dp.value:
            disagreements += 1
    ok = sharewise_ncm == 0 and adversarial_vi == 0 and disagreements == 0
    report(10, ok, f"{n_sweeps} sweeps (q in {{2,3,5,7}}, 1-3 stages, all "
                   f"nonzero twiddles): {sharewise_ncm} sharewise "
                   f"non-constant-marginal, {adversarial_vi} "
                   f"value-independent recombination probes; recombination "
                   f"agreement: {disagreements} disagreements")
