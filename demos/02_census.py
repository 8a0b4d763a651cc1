#!/usr/bin/env python3
"""Exhaustive verdict census over every Boolean wire at small moduli.

At modulus q there are 2^(q^2) Boolean wire functions; up to q = 5 the
whole space (33.5 million wires at q = 5) is counted, by classes of
per-column and per-diagonal true-cell counts rather than wire by wire.
Two independent cross-checks anchor the counts:

  - value-independent wires depend only on the mask, so there are 2^q;
  - constant-marginal wires distribute true cells evenly over the q
    reparametrization diagonals: sum_k C(q, k)^q of them.

The census lists the value-independent wires and re-verifies on each one
that it has a constant marginal (soundness_violations must be zero).
"""

import maskcheck as mc


def main():
    print("=" * 72)
    print("BOOLEAN WIRE CENSUS, q = 2 .. 5")
    print("=" * 72)
    print()
    header = (f"{'q':>2} {'wires':>12} {'value-indep':>12} "
              f"{'const-marg':>11} {'conservative':>13} {'violations':>11} "
              f"{'formula':>9} {'time':>8}")
    print(header)
    print("-" * len(header))
    for q in (2, 3, 4, 5):
        r = mc.run_census(q)
        formula = mc.constant_marginal_count_formula(q)
        agree = "ok" if formula == r.count_constant_marginal else "MISMATCH"
        print(f"{q:>2} {r.total_wires:>12,} {r.count_value_independent:>12,} "
              f"{r.count_constant_marginal:>11,} {r.count_conservative:>13,} "
              f"{r.soundness_violations:>11} {agree:>9} "
              f"{r.wall_time_seconds:>7.2f}s")
    print()

    print("Spot checks at q = 2 (wire index packs bit (s0*q + s1)):")
    for idx, label in [
        (0, "all-false wire"),
        (3, "indicator of s0 = 0"),
        (1, "[s0 = 0 and s1 = 0]"),
    ]:
        rep = mc.spot_check(2, idx)
        print(f"  index {idx:>2} ({label}): {rep.verdict.value}")
        print(f"           histograms {rep.marginals}")
        if rep.s1_dependence is not None:
            print(f"           mask-only dependence f(s1) = {rep.s1_dependence}")
    print()
    print("One modulus further (q = 6) the space has 2^36 wires; enumeration")
    print("stops here, which is precisely why the small-q census is paired")
    print("with the combinatorial formula as an independent oracle.")


if __name__ == "__main__":
    main()
