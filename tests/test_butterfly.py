import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import maskcheck as mc
from maskcheck import butterfly, cli
from maskcheck.wires import VERDICT_BY_CODE


def stage(q, t):
    return mc.ButterflyStage(mc.Modulus(q).element(t))


def masked(q, s0, s1):
    m = mc.Modulus(q)
    return mc.MaskedValue(m.element(s0), m.element(s1))


class TestPlainButterfly:
    def test_worked_example(self):
        m5 = mc.Modulus(5)
        c, d = mc.butterfly_plain(stage(5, 2), m5.element(3), m5.element(4))
        assert (c.value, d.value) == (1, 0)  # 3+8 = 11 = 1, 3-8 = -5 = 0

    def test_zero_operand(self):
        m = mc.Modulus(17)
        c, d = mc.butterfly_plain(stage(17, 9), m.element(6), m.element(0))
        assert c.value == d.value == 6

    def test_unit_twiddle(self):
        m = mc.Modulus(3329)
        c, d = mc.butterfly_plain(stage(3329, 1), m.element(0), m.element(1))
        assert (c.value, d.value) == (1, 3328)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            mc.butterfly_plain(stage(5, 2), mc.Modulus(5).element(1),
                               mc.Modulus(7).element(1))


class TestMaskedButterfly:
    def test_worked_example_sharewise(self):
        # a = (1,2) recombines to 3, b = (4,0) recombines to 4
        c, d = mc.butterfly_masked(stage(5, 2), masked(5, 1, 2), masked(5, 4, 0))
        assert c.recombine().value == 1
        assert d.recombine().value == 0
        a = mc.mask_value(mc.Modulus(5).element(3), mc.Modulus(5).element(2))
        assert (a.share0.value, a.share1.value, a.q) == (1, 2, 5)
        assert stage(5, 2).modulus == mc.Modulus(5)

    def test_zero_masks_propagate(self):
        c, d = mc.butterfly_masked(stage(7, 3), masked(7, 4, 0), masked(7, 2, 0))
        assert c.share1.value == 0 and d.share1.value == 0

    def test_recombination_agreement_exhaustive(self):
        for q in (2, 3, 5, 7):
            for t in range(q):
                st_ = stage(q, t)
                m = mc.Modulus(q)
                for a0, a1, b0, b1 in product(range(q), repeat=4):
                    a, b = masked(q, a0, a1), masked(q, b0, b1)
                    cm_, dm_ = mc.butterfly_masked(st_, a, b)
                    cp, dp = mc.butterfly_plain(st_, a.recombine(), b.recombine())
                    assert cm_.recombine().value == cp.value
                    assert dm_.recombine().value == dp.value

    def test_recombination_agreement_random_3329(self):
        q = 3329
        rng = np.random.default_rng(33)
        for _ in range(500):
            t, a0, a1, b0, b1 = rng.integers(0, q, size=5).tolist()
            st_ = stage(q, t)
            a, b = masked(q, a0, a1), masked(q, b0, b1)
            cm_, dm_ = mc.butterfly_masked(st_, a, b)
            cp, dp = mc.butterfly_plain(st_, a.recombine(), b.recombine())
            assert cm_.recombine().value == cp.value
            assert dm_.recombine().value == dp.value

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_stage_linearity_on_recombined_values(self, q):
        # stage(alpha*u + beta*v) = alpha*stage(u) + beta*stage(v), acting on
        # (a, b) pairs componentwise over the ring.
        m = mc.Modulus(q)
        if q <= 3:
            cases = list(product(range(q), repeat=6))
        else:
            rng = np.random.default_rng(q)
            cases = [tuple(row) for row in rng.integers(0, q, size=(500, 6))]
        for t in range(q):
            st_ = stage(q, t)
            for a_u, b_u, a_v, b_v, alpha, beta in cases:
                au, bu = m.element(a_u), m.element(b_u)
                av, bv = m.element(a_v), m.element(b_v)
                al, be = m.element(alpha), m.element(beta)
                c_lin, d_lin = mc.butterfly_plain(st_, al * au + be * av,
                                                  al * bu + be * bv)
                cu, du = mc.butterfly_plain(st_, au, bu)
                cv, dv = mc.butterfly_plain(st_, av, bv)
                assert c_lin.value == (al * cu + be * cv).value
                assert d_lin.value == (al * du + be * dv).value

    def test_masked_modulus_mismatch(self):
        with pytest.raises(ValueError):
            mc.MaskedValue(mc.Modulus(5).element(1), mc.Modulus(7).element(1))


class TestWireExtraction:
    def test_secret_share0_is_canonical_conservative_case(self):
        # Raw first share of the secret: uniform histogram for every x,
        # never value-independent.
        w = mc.extract_wire_function([stage(5, 2)], "s0.a0", "a", [(0, 0)])
        assert w.alphabet_size == 5
        assert mc.classify(w) is mc.Verdict.CONSTANT_MARGINAL_ONLY
        m = mc.marginal_table(w)
        assert (m == 1).all()

    def test_mask_share_is_value_independent(self):
        w = mc.extract_wire_function([stage(5, 2)], "s0.a1", "a", [(3, 1)])
        assert mc.classify(w) is mc.Verdict.VALUE_INDEPENDENT

    def test_recombined_output_leaks(self):
        for ctx in [(0, 0), (3, 1), (4, 2)]:
            w = mc.extract_wire_function([stage(5, 2)], "s0.c_recombined", "a", [ctx])
            v = mc.classify(w)
            assert v is not mc.Verdict.VALUE_INDEPENDENT
            assert v is mc.Verdict.NON_CONSTANT_MARGINAL

    def test_secret_in_b_role(self):
        w = mc.extract_wire_function([stage(5, 2)], "s0.tb0", "b", [(1, 4)])
        assert mc.classify(w) is mc.Verdict.CONSTANT_MARGINAL_ONLY
        w = mc.extract_wire_function([stage(5, 2)], "s0.b1", "b", [(1, 4)])
        assert mc.classify(w) is mc.Verdict.VALUE_INDEPENDENT

    def test_matches_scalar_evaluation(self):
        # The vectorized grid must agree with running butterfly_masked by hand.
        q, t = 5, 3
        ctx_plain, ctx_mask = 2, 4
        pipeline = [stage(q, t)]
        b = masked(q, (ctx_plain - ctx_mask) % q, ctx_mask)
        for tap, pick in [
            ("s0.c0", lambda c, d: c.share0.value),
            ("s0.d1", lambda c, d: d.share1.value),
            ("s0.d_recombined", lambda c, d: d.recombine().value),
        ]:
            w = mc.extract_wire_function(pipeline, tap, "a",
                                         [(ctx_plain, ctx_mask)])
            for s0 in range(q):
                for s1 in range(q):
                    a = masked(q, s0, s1)
                    c, d = mc.butterfly_masked(pipeline[0], a, b)
                    assert w(s0, s1) == pick(c, d)

    def test_invalid_tap(self):
        with pytest.raises(ValueError, match="unknown tap"):
            mc.extract_wire_function([stage(5, 2)], "s0.bogus", "a", [(0, 0)])

    def test_context_length_checked(self):
        with pytest.raises(ValueError, match="one per stage"):
            mc.extract_wire_function([stage(5, 2)], "s0.c0", "a", [(0, 0), (1, 1)])

    def test_pipeline_checked(self):
        with pytest.raises(ValueError, match="^pipeline must contain at least one stage$"):
            mc.extract_wire_function([], "s0.c0", "a", [])
        with pytest.raises(ValueError, match="^modulus mismatch in pipeline: 7 vs 5$"):
            mc.extract_wire_function([stage(5, 2), stage(7, 3)], "s0.c0", "a", [(0, 0)] * 2)

    def test_invalid_role(self):
        with pytest.raises(ValueError, match="secret_role"):
            mc.extract_wire_function([stage(5, 2)], "s0.c0", "x", [(0, 0)])

    def test_over_cell_cap_refused_before_allocating(self, monkeypatch):
        def refused(q):
            raise AssertionError(f"share pairs built at q={q}")

        monkeypatch.setattr(butterfly, "_share_pairs", refused)
        with pytest.raises(ValueError, match="q=8193 with alphabet 8193 needs "
                                             "67125249 table cells, above cap 67108864"):
            mc.extract_wire_function([stage(8193, 2)], "s0.c0", "a", [(0, 0)])


class TestTaints:
    @pytest.mark.parametrize("n_stages", [1, 2, 3])
    def test_signal_names_are_the_tap_inventory(self, n_stages):
        """Over residues and over taint sets, the signal grid holds every
        tap of `tap_inventory`, in its order, and no other."""
        q = 5
        secret = butterfly._share_pairs(q)
        context = [(1, 2)] * n_stages
        residues = butterfly._signal_grid(butterfly._residue_ops(q), [2] * n_stages,
                                          butterfly._place_secret("a", secret, context))
        taints = mc.trace_taints(n_stages, "b")
        assert list(residues) == list(taints) == mc.tap_inventory(n_stages)

    def test_sharewise_signals_never_mix_shares(self):
        for role in ("a", "b"):
            for n_stages in (1, 2, 3):
                taints = mc.trace_taints(n_stages, role)
                for tap, taint in taints.items():
                    if not mc.is_adversarial_tap(tap):
                        assert not {"secret0", "secret1"} <= taint, tap

    def test_recombination_mixes_both_shares(self):
        taints = mc.trace_taints(2, "a")
        assert taints["s0.c_recombined"] == {"secret0", "secret1"}
        assert taints["s1.d_recombined"] == {"secret0", "secret1"}

    def test_secret_propagates_through_stages(self):
        taints = mc.trace_taints(3, "a")
        assert taints["s2.c0"] == {"secret0"}
        assert taints["s2.c1"] == {"secret1"}

    def test_full_maps_pinned(self):
        # Captured from the hand-written taint tracker that preceded the
        # generic pipeline evaluation: every tap, 1-3 stages, both roles.
        pinned = json.loads(
            (Path(__file__).parent / "data" / "trace_taints.json").read_text())
        for role, by_stages in pinned.items():
            for n_stages, expected in by_stages.items():
                taints = mc.trace_taints(int(n_stages), role)
                assert {tap: sorted(t) for tap, t in taints.items()} == expected


class TestConjectureSweep:
    def test_small_sweeps_clean(self):
        for q in (2, 3, 5):
            rep = mc.conjecture_sweep(q, 1)
            assert rep.clean
            assert rep.n_configurations == (q - 1) * 2 * q * q

    def test_smallest_ring_all_stage_counts(self):
        for n_stages in (1, 2, 3):
            rep = mc.conjecture_sweep(2, n_stages)
            assert rep.clean
            assert rep.to_dict()["clean"] is True

    def test_adversarial_taps_always_leak(self):
        rep = mc.conjecture_sweep(5, 2)
        for tap, counts in rep.tap_verdict_counts.items():
            if mc.is_adversarial_tap(tap):
                assert counts[mc.Verdict.VALUE_INDEPENDENT] == 0

    def test_sharewise_taps_never_non_constant(self):
        rep = mc.conjecture_sweep(7, 2)
        for tap, counts in rep.tap_verdict_counts.items():
            if not mc.is_adversarial_tap(tap):
                assert counts[mc.Verdict.NON_CONSTANT_MARGINAL] == 0

    def test_report_mentions_evidence_not_proof(self):
        rep = mc.conjecture_sweep(3, 1)
        assert "not a proof" in rep.note
        assert "not a proof" in rep.to_dict()["note"]

    def test_budget_guards(self):
        with pytest.raises(ValueError):
            mc.conjecture_sweep(11, 1)
        with pytest.raises(ValueError):
            mc.conjecture_sweep(5, 4)

    @pytest.mark.parametrize("twiddles,message", [
        ((1, 4), "twiddle 4 repeats twiddle 1 mod 3"),
        ((2, 2), "twiddle 2 repeats twiddle 2 mod 3"),
        ((1, 2, -2), "twiddle -2 repeats twiddle 1 mod 3"),
    ])
    def test_twiddles_repeated_mod_q_refused(self, twiddles, message):
        with pytest.raises(ValueError, match=message):
            mc.conjecture_sweep(3, 1, twiddle_set=twiddles)

    @pytest.mark.parametrize("kwargs", [{"twiddle_set": ()}, {"secret_roles": ()},
                                        {"twiddle_set": [], "secret_roles": []}])
    def test_sweep_without_configurations_refused(self, kwargs):
        """No twiddle or no role leaves no configuration, whose report would
        be vacuously clean."""
        with pytest.raises(ValueError,
                           match="^sweep needs at least one twiddle and one secret role$"):
            mc.conjecture_sweep(3, 1, **kwargs)

    @pytest.mark.parametrize("roles,again", [(("a", "a", "b"), "a"), (("b", "b"), "b"),
                                             (("b", "a", "b"), "b")])
    def test_roles_repeated_refused(self, roles, again):
        with pytest.raises(ValueError, match=f"secret role {again!r} repeats"):
            mc.conjecture_sweep(3, 1, secret_roles=roles)

    @pytest.mark.parametrize("twiddles,roles", [((1,), ("a", "b")), ((2, 1), ("b",)),
                                                ((4, 2), ("a", "b"))])
    def test_each_distinct_configuration_counted_once(self, twiddles, roles):
        rep = mc.conjecture_sweep(3, 2, twiddle_set=twiddles, secret_roles=roles)
        assert rep.twiddle_set == tuple(t % 3 for t in twiddles)
        assert rep.n_configurations == len(twiddles) ** 2 * len(roles) * 9
        assert sum(rep.tap_verdict_counts["s1.c0"].values()) == rep.n_configurations

    @pytest.mark.parametrize("verdict", [mc.Verdict.NON_CONSTANT_MARGINAL,
                                         mc.Verdict.VALUE_INDEPENDENT])
    def test_findings_listed_in_sweep_order_up_to_the_cap(self, monkeypatch, capsys,
                                                          verdict):
        """Every wire answered `verdict`: the sharewise taps (under
        NON_CONSTANT_MARGINAL) or the recombination probes (under
        VALUE_INDEPENDENT) are flagged, each context of each, in (twiddles,
        role, tap, context) order and at most MAX_FINDINGS of them, and
        the CLI reports the alarm."""
        code = VERDICT_BY_CODE.index(verdict)
        monkeypatch.setattr(butterfly, "classify_cells_bulk",
                            lambda q, cells: np.full(len(cells), code))
        rep = mc.conjecture_sweep(3, 1)
        adversarial = verdict is mc.Verdict.VALUE_INDEPENDENT
        taps = [tap for tap in mc.tap_inventory(1) if mc.is_adversarial_tap(tap) == adversarial]
        expected = [(tap, (t,), role, (pair,), verdict)
                    for t in (1, 2) for role in ("a", "b") for tap in taps
                    for pair in product(range(3), repeat=2)][:butterfly.MAX_FINDINGS]
        assert len(expected) == (72 if adversarial else butterfly.MAX_FINDINGS)
        found, other = rep.non_constant_marginal, rep.value_independent_adversarial
        if adversarial:
            found, other = other, found
        assert [(f.tap, f.twiddles, f.secret_role, f.context, f.verdict)
                for f in found] == expected
        assert other == [] and not rep.clean
        assert cli.main(["butterfly", "--q", "3"]) == 3
        assert capsys.readouterr().err.startswith("error: sweep flagged ")

    def test_deterministic(self):
        a = mc.conjecture_sweep(3, 2).to_dict()
        b = mc.conjecture_sweep(3, 2).to_dict()
        assert a == b
