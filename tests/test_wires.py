import decimal
import itertools
import json
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskcheck as mc
from maskcheck import _steps, cli, wires
from maskcheck.wires import VERDICT_BY_CODE, WIRE_ORDER, _analyze

# ---------------------------------------------------------------------------
# Naive oracle: straight-off-the-definitions loops, no shared machinery with
# the library.  Everything below that asserts a concrete number derives it
# from these first.
# ---------------------------------------------------------------------------


def naive_output(q, table, x, s1):
    return table[((x - s1) % q) * q + s1]


def naive_is_vi(q, table):
    for s1 in range(q):
        outputs = {naive_output(q, table, x, s1) for x in range(q)}
        if len(outputs) > 1:
            return False
    return True


def naive_hist(q, table, x, alphabet):
    h = [0] * alphabet
    for s1 in range(q):
        h[naive_output(q, table, x, s1)] += 1
    return h


def naive_constant_marginal(q, table, alphabet):
    first = naive_hist(q, table, 0, alphabet)
    return all(naive_hist(q, table, x, alphabet) == first for x in range(q))


def naive_mi_bits(q, table):
    joint = {}
    for x in range(q):
        for s1 in range(q):
            v = naive_output(q, table, x, s1)
            joint[(x, v)] = joint.get((x, v), 0) + 1
    out_count = {}
    for (x, v), c in joint.items():
        out_count[v] = out_count.get(v, 0) + c
    total = q * q
    mi = 0.0
    for (x, v), c in joint.items():
        ratio = Fraction(c * q, out_count[v])  # p(x,v) / (p(x) p(v))
        mi += (c / total) * math.log2(ratio)
    return mi


def and_wire_q2():
    # w(s0, s1) = [s0 = 0 and s1 = 0]
    return mc.wire_from_fn(2, lambda s0, s1: int(s0 == 0 and s1 == 0))


# The derived q=2 example wire, brute-forced via naive_mi_bits and frozen.
AND_WIRE_MI_BITS = 0.3112781244591328


def random_wire(rng, q, alphabet=2):
    table = rng.integers(0, alphabet, size=q * q)
    return mc.make_wire(q, table, alphabet_size=alphabet)


class TestWireConstruction:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            mc.make_wire(2, [0, 1, 0])

    def test_entry_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            mc.make_wire(2, [0, 1, 2, 0])

    @pytest.mark.parametrize("bad", [
        {7: 2, 12: 5}, {15: -1}, {0: 9, 3: 2}, {2: 3, 6: 2 ** 70}, {6: 2 ** 70, 9: 2},
    ])
    def test_first_bad_entry_named_across_steps(self, monkeypatch, bad):
        """The first entry outside the alphabet is named, searched for 3
        entries at a time in a q = 4 table."""
        monkeypatch.setattr(_steps, "STEP_CELLS", 3)
        table = [0, 1] * 8
        for i, entry in bad.items():
            table[i] = entry
        first = min(bad)
        with pytest.raises(ValueError) as info:
            mc.make_wire(4, table)
        assert str(info.value) == (
            f"table entry {bad[first]} at index {first} outside alphabet [0, 2)")

    def test_cell_cap(self, monkeypatch):
        monkeypatch.setattr(wires, "DEFAULT_CELL_CAP", 8)
        with pytest.raises(ValueError, match="needs 9 table cells, above cap 8"):
            mc.wire_from_fn(3, lambda a, b: 0)
        with pytest.raises(ValueError, match="above cap 8"):
            mc.WireFunction(3, 2, np.zeros(9, np.uint8))
        assert mc.wire_from_fn(2, lambda a, b: 0, alphabet_size=4).q == 2

    @pytest.mark.parametrize("q,alphabet", [(3, 2), (2, 5)])
    def test_cell_cap_refused_without_a_table(self, monkeypatch, capsys, tmp_path,
                                              q, alphabet):
        """A wire file whose q and alphabet are above the cap exits 2 with
        the gate's own message; pass 2 of the loader checks the entries
        but keeps none of them."""
        path = tmp_path / "wire.json"
        path.write_text(json.dumps({"q": q, "alphabet": alphabet, "order": WIRE_ORDER,
                                    "table": [1] * (q * q)}))
        monkeypatch.setattr(wires, "DEFAULT_CELL_CAP", 8)
        with pytest.raises(ValueError) as gate:
            mc.WireFunction(q, alphabet, np.zeros(q * q, np.uint8))
        real, tables = wires._parse_int_body, []

        def parse(*args):
            tables.append(real(*args))
            return tables[-1]

        monkeypatch.setattr(wires, "_parse_int_body", parse)
        assert cli.main(["classify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {gate.value}\n"
        assert [table.size for table in tables] == [0]

    @pytest.mark.parametrize("build", [mc.WireFunction, lambda q, a, t: mc.make_wire(q, t, a)],
                             ids=["WireFunction", "make_wire"])
    @pytest.mark.parametrize("q,alphabet,table,problem", [
        (3, 2, np.zeros(5, np.uint8), "table has 5 entries, expected q^2 = 9"),
        (2, 2, np.zeros((2, 2), np.uint8), "table has 4 entries, expected q^2 = 4"),
        (2, 2, np.array([0, 5, 0, 0], np.uint8), "table entry 5 at index 1 outside alphabet"),
        (0, 2, [], "modulus must be >= 1, got 0"),
        (2, 0, [0, 0, 0, 0], "alphabet_size must be >= 1, got 0"),
        (2, 2, [0.5, 1, 1, 0], "table entry 0.5 at index 0 is not an integer"),
        (2, 2, np.array([0.9, 1.2, 1, 0]), "table entry 0.9 at index 0 is not an integer"),
        (2, 2, ["1", "0", "0", "1"], "table entry '1' at index 0 is not an integer"),
        (2, 2, [0, 1, None, 0], "table entry None at index 2 is not an integer"),
    ])
    def test_gate_refuses(self, build, q, alphabet, table, problem):
        """The constructor refuses each malformed table, and make_wire,
        which only calls it, refuses the same with the same message."""
        with pytest.raises(ValueError, match=re.escape(problem)):
            build(q, alphabet, table)

    @pytest.mark.parametrize("table", [
        np.array([True, False, False, True]), [True, False, False, True], [1, 0, 0, 1],
        np.array([1, 0, 0, 1], np.int8), np.array([1, 0, 0, 1], np.uint64),
    ], ids=["bool-array", "bool-list", "int-list", "int8", "uint64"])
    def test_gate_accepts_integer_and_boolean_tables(self, table):
        w = mc.WireFunction(2, 2, table)
        assert w.table.dtype == np.uint8 and not w.table.flags.writeable
        assert list(w.table) == [1, 0, 0, 1]

    def test_gate_normalizes_q(self):
        w = mc.WireFunction(mc.Modulus(2), 2, [0, 1, 1, 0])
        assert type(w.q) is int and w.q == 2 and mc.classify(w) is mc.Verdict.NON_CONSTANT_MARGINAL

    def test_call_convention_is_s0_major(self):
        w = mc.make_wire(2, [0, 1, 1, 0])
        assert w(0, 1) == 1 and w(1, 0) == 1 and w(0, 0) == 0

    @pytest.mark.parametrize("s0,s1", [(0, 3), (3, 0), (-1, 0), (0, -1), (9, 9)])
    def test_call_refuses_shares_outside_zq(self, s0, s1):
        w = mc.make_wire(3, range(9), 9)
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            w(s0, s1)

    @pytest.mark.parametrize("share,shares", [
        ("s0", (1.0, 0)), ("s0", (True, 0)), ("s1", (0, 1.0)), ("s1", (0, False)),
    ])
    def test_call_refuses_shares_that_are_not_integers(self, share, shares):
        with pytest.raises(ValueError, match=f"{share} must be an integer"):
            mc.t6_witness(3)(*shares)

    @pytest.mark.parametrize("q,alphabet,dtype", [
        (2, 2, np.uint8), (2, 256, np.uint8), (2, 257, np.uint16),
        (2, 3329, np.uint16), (2, 65536, np.uint16), (2, 70000, np.int32),
        (300, 2, np.uint8),  # marginals counted over several steps of rows
    ])
    def test_table_and_marginals_take_narrow_dtypes(self, q, alphabet, dtype):
        table = np.arange(q * q) % 2 * (alphabet - 1)
        w = mc.make_wire(q, table, alphabet_size=alphabet)
        assert w.table.dtype == dtype and list(w.table) == list(table)
        assert mc.marginal_table(w).dtype == np.uint16

    @pytest.mark.parametrize("alphabet,entry", [(2, 256), (2, -1), (3329, 70000)])
    def test_direct_construction_refuses_what_its_dtype_cannot_hold(self, alphabet, entry):
        with pytest.raises(ValueError, match="outside alphabet"):
            mc.WireFunction(2, alphabet, np.array([0, entry, 0, 0]))

    def test_narrow_table_not_copied(self):
        table = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert np.shares_memory(mc.make_wire(2, table).table, table)
        doc = {"q": 2, "alphabet": 2, "order": WIRE_ORDER, "table": table}
        assert np.shares_memory(mc.wire_from_dict(doc).table, table)


class TestValueIndependence:
    def test_mask_only_wire_is_vi(self):
        w = mc.wire_from_fn(5, lambda s0, s1: s1 % 2)
        assert mc.is_value_independent(w)

    def test_indicator_of_zero_q2_is_not_vi(self):
        # At s1 = 0: output true for x = 0, false for x = 1.
        w = mc.t6_witness(2)
        assert not mc.is_value_independent(w)
        assert naive_output(2, list(w.table), 0, 0) == 1
        assert naive_output(2, list(w.table), 1, 0) == 0

    def test_constant_wire_is_vi(self):
        for q in (1, 2, 7):
            w = mc.wire_from_fn(q, lambda s0, s1: 1, alphabet_size=2)
            assert mc.is_value_independent(w)

    def test_vi_iff_no_s0_dependence_exhaustive_small_q(self):
        # Characterization via bijectivity: the reparametrized check agrees
        # with direct first-argument independence on every wire.
        for q in (1, 2, 3):
            for idx in range(1 << (q * q)):
                table = [(idx >> p) & 1 for p in range(q * q)]
                w = mc.make_wire(q, table)
                s0_free = all(
                    len({table[s0 * q + s1] for s0 in range(q)}) == 1
                    for s1 in range(q)
                )
                assert mc.is_value_independent(w) == s0_free

    def test_vi_iff_no_s0_dependence_random_q5(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            w = random_wire(rng, 5)
            table = list(w.table)
            s0_free = all(
                len({table[s0 * 5 + s1] for s0 in range(5)}) == 1
                for s1 in range(5)
            )
            assert mc.is_value_independent(w) == s0_free


def batch_row(rng, q, alphabet, i):
    """Row i of a test batch: a random table, a function of s1 (VI), a
    function of s0 (constant marginal) or a constant, using the first
    1 + (i + q) % alphabet symbols, so many rows never reach alphabet - 1."""
    top = 1 + (i + q) % alphabet
    kind = i % 4
    if kind == 0:
        return rng.integers(0, top, q * q).tolist()
    if kind == 1:
        return np.tile(rng.integers(0, top, q), q).tolist()
    if kind == 2:
        return np.repeat(rng.integers(0, top, q), q).tolist()
    return [top - 1] * (q * q)


class TestDenseKernel:
    """`_analyze` and `reparam_table` against the naive oracle."""

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 7])
    def test_reparam_table_matches_naive(self, q):
        table = np.random.default_rng(40 + q).integers(0, 4, q * q).tolist()
        r = mc.reparam_table(mc.make_wire(q, table, alphabet_size=4))
        assert r.tolist() == [
            [naive_output(q, table, x, s1) for s1 in range(q)] for x in range(q)
        ]

    @pytest.mark.parametrize("n", [1, 2, 64])
    @pytest.mark.parametrize("alphabet", [2, 3, 4, 5])
    def test_batch_matches_naive(self, n, alphabet):
        rng = np.random.default_rng(100 * n + alphabet)
        for q in (1, 2, 3, 5, 7):
            rows = [batch_row(rng, q, alphabet, i) for i in range(n)]
            cm, m = _analyze(q, np.array(rows, dtype=np.int64), alphabet)
            codes = mc.classify_cells_bulk(q, np.array(rows))
            assert m.shape == (n, q, alphabet)
            for row, code, constant, hists in zip(rows, codes, cm, m):
                assert hists.tolist() == [
                    naive_hist(q, row, x, alphabet) for x in range(q)
                ]
                assert constant == naive_constant_marginal(q, row, alphabet)
                vi = naive_is_vi(q, row)
                assert (VERDICT_BY_CODE[code] is mc.Verdict.VALUE_INDEPENDENT) == vi
                assert (VERDICT_BY_CODE[code] is not mc.Verdict.NON_CONSTANT_MARGINAL) == constant

    # 20 cells per step: bulk groups of two q = 3 Boolean rows, or steps of
    # two q = 7 rows that leave one over; 50: the whole q = 3 Boolean batch,
    # or one q = 7 row; 1: one row.
    @pytest.mark.parametrize("step", [1, 20, 50])
    @pytest.mark.parametrize("alphabet", [2, 11])
    def test_steps_match_reparam_histograms(self, monkeypatch, step, alphabet):
        """Marginals and verdicts of single wires, and of bulk batches cut
        into groups, counted in steps smaller than a wire or a batch, against
        histograms of the rows of `reparam_table`; the mutual information is
        unchanged."""
        rng = np.random.default_rng(step * alphabet)
        batches = {q: np.array([batch_row(rng, q, alphabet, i) for i in range(5)])
                   for q in (3, 7)}
        mi = {q: [mc.mutual_information(mc.make_wire(q, row, alphabet)).bits
                  for row in rows] for q, rows in batches.items()}
        monkeypatch.setattr(_steps, "STEP_CELLS", step)
        for q, rows in batches.items():
            if q * q > step:
                assert len(_steps.steps(1, q, q)) > 1
            if 5 * q * q > step:
                assert len(_steps.steps(5, 1, q * q)) > 1
            codes = mc.classify_cells_bulk(q, rows)
            for row, code, bits in zip(rows, codes, mi[q]):
                cm, m = _analyze(q, row[None, :], alphabet)
                w = mc.make_wire(q, row, alphabet)
                r = mc.reparam_table(w)
                expected = np.array([np.bincount(x, minlength=alphabet) for x in r])
                assert m[0].tolist() == expected.tolist()
                assert mc.marginal_table(w).tolist() == expected.tolist()
                vi = bool((r == r[0]).all())
                constant = bool((expected == expected[0]).all())
                assert cm.tolist() == [constant]
                assert VERDICT_BY_CODE[code] is mc.classify(w)
                assert (VERDICT_BY_CODE[code] is mc.Verdict.VALUE_INDEPENDENT) == vi
                assert (VERDICT_BY_CODE[code] is not mc.Verdict.NON_CONSTANT_MARGINAL) == constant
                assert mc.mutual_information(w).bits == bits


    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_block_marginals_match_reparam_histograms(self, monkeypatch, threads):
        """Residue wires (alphabet q) whose marginal table is larger than a
        step of 160 cells, counted by `WireFunction._stream` on 1 to 4 threads in
        blocks of secret rows whose last one is short, against histograms of
        the rows of `reparam_table`."""
        monkeypatch.setattr(_steps, "STEP_CELLS", 160)
        monkeypatch.setattr(_steps, "usable_cpus", lambda: threads)
        rng = np.random.default_rng(60 + threads)
        for q in (13, 29, 41, 61):  # blocks of 12, 5, 3 and 2 rows
            assert q * q > _steps.STEP_CELLS and q % (_steps.STEP_CELLS // q)
            tables = [batch_row(rng, q, q, i) for i in range(4)]
            tables.append(rng.integers(0, q, q * q))
            for table in tables:
                w = mc.make_wire(q, table, alphabet_size=q)
                r = mc.reparam_table(w)
                expected = np.array([np.bincount(x, minlength=q) for x in r])
                assert mc.marginal_table(w).tolist() == expected.tolist()
                vi = bool((r == r[0]).all())
                cm = bool((expected == expected[0]).all())
                assert mc.is_value_independent(w) == vi
                assert mc.has_constant_marginal(w) == cm

    def test_own_theory_violation(self, monkeypatch, capsys, tmp_path):
        """Where a wire's tables compare equal but its marginal tables do
        not, the kernel raises TheoryViolation naming the wire: `classify`
        the wire, `classify_cells_bulk` its row, and the CLI exits 3 with
        nothing on stdout; so do both, for a wire counted in blocks."""
        w = mc.make_wire(3, [0, 1, 1, 0, 0, 1, 1, 1, 0])
        path = tmp_path / "wire.json"
        mc.save_wire(w, path)
        # Value independence (the tables' compare) is read before `_analyze`
        # compares the marginals: calls alternate tables, then marginals.
        calls = itertools.count()
        monkeypatch.setattr(wires, "_rows_equal",
                            lambda a: np.full(len(a), next(calls) % 2 == 0))
        with pytest.raises(mc.TheoryViolation, match="^wire at q=3 is value-independent"):
            mc.classify(w)
        with pytest.raises(mc.TheoryViolation, match="^bulk row 0 at q=3 "):
            mc.classify_cells_bulk(3, w.table[None, :])
        assert cli.main(["classify", str(path)]) == 3
        out, err = capsys.readouterr()
        assert not out and err.startswith("theory violation: wire at q=3 ")
        # A value-independent residue wire counted in blocks, where every
        # block after secret 0's is counted one column off.
        monkeypatch.undo()
        q, table = 13, np.tile(np.arange(13) % 3, 13)
        monkeypatch.setattr(_steps, "STEP_CELLS", 20)
        assert wires._in_blocks(q, 3)
        count_block = wires._count_block
        monkeypatch.setattr(wires, "_count_block", lambda q, t, a, base, x0: np.roll(
            count_block(q, t, a, base, x0), int(x0 > 0), axis=1))
        with pytest.raises(mc.TheoryViolation, match="^bulk row 0 at q=13 is value-independent"):
            mc.classify_cells_bulk(q, np.vstack([table, table]))
        with pytest.raises(mc.TheoryViolation, match="^wire at q=13 "):
            mc.classify(mc.make_wire(q, table, alphabet_size=3))


@st.composite
def stream_wires(draw):
    """A Boolean wire, whose marginal table is one step, or a residue wire
    (alphabet q) with a step budget of 1 to 40 cells, so that most stream
    in blocks: a function of s1 (value-independent), of s0 (constant
    marginal), of s0 + s1, random, or a function of s0 with one cell
    changed, so that one secret's row alone differs from the others."""
    q = draw(st.integers(1, 13))
    residue = draw(st.booleans())
    alphabet = q if residue else 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s0, s1 = np.divmod(np.arange(q * q), q)
    g = rng.integers(0, alphabet, q)
    table = draw(st.sampled_from([g[s1], g[s0], g[(s0 + s1) % q],
                                  rng.integers(0, alphabet, q * q)]))
    if draw(st.booleans()):
        table = g[s0]
        table[draw(st.integers(0, q * q - 1))] = draw(st.integers(0, alphabet - 1))
    budget = draw(st.integers(1, 40)) if residue else _steps.STEP_CELLS
    return mc.make_wire(q, table, alphabet_size=alphabet), budget


class TestMarginalStream:
    @settings(max_examples=300, deadline=None)
    @given(stream_wires(), st.sampled_from([1, 2]), st.booleans())
    def test_stream_matches_reparam_histograms(self, wire, threads, classified):
        """Every (rows, v) of `WireFunction._stream`, on 1 and 2 threads, fresh
        or after `classify`, against histograms of the rows of
        `reparam_table`: v is None iff each of those rows equals row 0,
        else it is those rows; the blocks cover the secrets in order."""
        w, budget = wire
        expected = np.array([np.bincount(r, minlength=w.alphabet_size)
                             for r in mc.reparam_table(w)])
        covered = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_steps, "STEP_CELLS", budget)
            mp.setattr(_steps, "usable_cpus", lambda: threads)
            if classified:
                mc.classify(w)
            for rows, v in w._stream(lambda counts: counts.copy()):
                block = expected[rows]
                assert (v is None) == bool((block == expected[0]).all())
                if v is not None:
                    assert v.tolist() == block.tolist()
                covered += range(rows.start, rows.stop)
            assert mc.marginal_table(w).tolist() == expected.tolist()
        assert covered == list(range(w.q))


class TestMarginals:
    def test_witness_histogram_q5(self):
        w = mc.t6_witness(5)
        # exactly one mask (s1 = x) sends the first share to zero
        assert list(mc.marginal_histogram(w, 3)) == [4, 1]

    def test_constant_wire_histogram(self):
        w = mc.wire_from_fn(7, lambda s0, s1: 1)
        for x in range(7):
            assert list(mc.marginal_histogram(w, x)) == [0, 7]

    def test_and_wire_histograms(self):
        w = and_wire_q2()
        assert list(mc.marginal_histogram(w, 0)) == [1, 1]
        assert list(mc.marginal_histogram(w, 1)) == [2, 0]
        assert not mc.has_constant_marginal(w)

    def test_row_sums_always_q(self):
        rng = np.random.default_rng(11)
        for q in (1, 2, 3, 5, 7):
            for alphabet in (2, 3, 5):
                w = random_wire(rng, q, alphabet)
                m = mc.marginal_table(w)
                assert (m.sum(axis=1) == q).all()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(12)
        for q in (2, 3, 5):
            for alphabet in (2, 3):
                w = random_wire(rng, q, alphabet)
                table = list(w.table)
                for x in range(q):
                    assert list(mc.marginal_histogram(w, x)) == naive_hist(
                        q, table, x, alphabet
                    )

    def test_table_computed_once_and_read_only(self):
        w = mc.t6_witness(5)
        m = mc.marginal_table(w)
        assert mc.marginal_table(w) is m and not m.flags.writeable

    def test_secret_out_of_range(self):
        w = mc.t6_witness(3)
        with pytest.raises(ValueError):
            mc.marginal_histogram(w, 3)

    def test_secret_as_ring_element(self):
        w = mc.t6_witness(5)
        assert list(mc.marginal_histogram(w, mc.Modulus(5).element(3))) == list(
            mc.marginal_histogram(w, 3))
        with pytest.raises(ValueError, match="modulus mismatch: wire has q=5, x has q=7"):
            mc.marginal_histogram(w, mc.Modulus(7).element(3))


class TestClassify:
    def test_mask_only_wire(self):
        w = mc.wire_from_fn(4, lambda s0, s1: int(s1 == 2))
        assert mc.classify(w) is mc.Verdict.VALUE_INDEPENDENT

    def test_witness_large_q(self):
        w = mc.t6_witness(3329)
        assert mc.classify(w) is mc.Verdict.CONSTANT_MARGINAL_ONLY

    def test_and_wire(self):
        assert mc.classify(and_wire_q2()) is mc.Verdict.NON_CONSTANT_MARGINAL

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.sampled_from([2, 3, 5, 7]),
        alphabet=st.sampled_from([2, 3, 5]),
        data=st.data(),
    )
    def test_soundness_on_random_wires(self, q, alphabet, data):
        # Value-independence must imply a constant marginal for any alphabet.
        table = data.draw(
            st.lists(st.integers(0, alphabet - 1), min_size=q * q, max_size=q * q)
        )
        w = mc.make_wire(q, table, alphabet_size=alphabet)
        if mc.is_value_independent(w):
            assert mc.has_constant_marginal(w)
        # classify() performs the same check internally; it must never raise.
        mc.classify(w)

    def test_soundness_exhaustive_q2(self):
        for idx in range(16):
            table = [(idx >> p) & 1 for p in range(4)]
            if naive_is_vi(2, table):
                assert naive_constant_marginal(2, table, 2)
            mc.classify(mc.make_wire(2, table))


class TestBulkClassifier:
    def test_matches_scalar_classify(self):
        rng = np.random.default_rng(21)
        for q in (2, 3, 5, 7):
            cells = rng.integers(0, 2, size=(64, q * q))
            codes = mc.classify_cells_bulk(q, cells)
            for dtype in (np.uint64, object):
                assert mc.classify_cells_bulk(q, cells.astype(dtype)).tolist() == codes.tolist()
            for row, code in zip(cells, codes):
                w = mc.make_wire(q, row)
                assert mc.classify(w) is mc.wires.VERDICT_BY_CODE[code]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mc.classify_cells_bulk(2, np.zeros((3, 5), dtype=np.int64))

    def test_alphabet_taken_from_entries(self):
        rng = np.random.default_rng(22)
        for q, alphabet in ((3, 3), (5, 5), (7, 4)):
            cells = rng.integers(0, alphabet, size=(64, q * q))
            codes = mc.classify_cells_bulk(q, cells)
            for row, code in zip(cells, codes):
                w = mc.make_wire(q, row, alphabet_size=alphabet + 2)
                assert mc.classify(w) is mc.wires.VERDICT_BY_CODE[code]

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            mc.classify_cells_bulk(2, np.array([[0, 1, -1, 0]]))

    def test_modulus_zero_rejected(self):
        with pytest.raises(ValueError, match="^modulus must be >= 1, got 0$"):
            mc.classify_cells_bulk(0, np.zeros((1, 0), dtype=np.int64))

    @pytest.mark.parametrize("cells,message", [
        ([[0.5, 1.7, 1.2, 0.9]], "cell 0.5 at index 0 is not an integer"),
        ([["0", "1", "1", "0"]], "cell '0' at index 0 is not an integer"),
        ([[0, 1, 1, 0], [0, 1, 2**70, 0]], "q=2 with alphabet 1180591620717411303425 needs"),
    ])
    def test_non_integer_cells_rejected(self, cells, message):
        """Floats, strings and an integer beyond int64 are refused, as the
        `WireFunction` gate refuses them, not cast or overflowed."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            mc.classify_cells_bulk(2, cells)

    def test_batch_holds_a_step_of_marginal_tables(self):
        """64 rows of 4 cells whose largest entry is 32767 have 2^16-cell
        marginal tables, one a step: the batch counts one row's at a time,
        within 2 MiB traced, not the 32 MiB of all 64 at once."""
        cells = np.zeros((64, 4), dtype=np.int64)
        cells[:, 1] = 32767
        tracemalloc.start()
        try:
            codes = mc.classify_cells_bulk(2, cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codes.tolist() == [2] * 64
        assert peak <= 2 << 20, peak

    def test_cell_cap_refused_before_the_marginals(self, monkeypatch):
        """A row whose marginal table (q * alphabet cells) is above the
        cap is refused like a WireFunction, and one at the cap is not."""
        monkeypatch.setattr(wires, "DEFAULT_CELL_CAP", 8)
        assert len(mc.classify_cells_bulk(2, np.array([[0, 3, 3, 0]]))) == 1
        with pytest.raises(ValueError, match="q=2 with alphabet 5 needs 10 table cells, above cap 8"):
            mc.classify_cells_bulk(2, np.array([[0, 4, 4, 0]]))


class TestMutualInformation:
    def test_and_wire_matches_frozen_brute_force(self):
        w = and_wire_q2()
        expected = naive_mi_bits(2, list(w.table))
        assert abs(expected - AND_WIRE_MI_BITS) < 1e-15
        mi = mc.mutual_information(w)
        assert not mi.is_zero
        assert abs(mi.bits - AND_WIRE_MI_BITS) < 1e-9

    def test_vi_wire_mi_exactly_zero(self):
        w = mc.wire_from_fn(5, lambda s0, s1: s1 % 3, alphabet_size=3)
        mi = mc.mutual_information(w)
        assert mi.is_zero and mi.bits == 0.0

    def test_witness_mi_exactly_zero(self):
        for q in (2, 5, 257):
            mi = mc.mutual_information(mc.t6_witness(q))
            assert mi.is_zero and mi.bits == 0.0

    def test_matches_naive_on_random_wires(self):
        rng = np.random.default_rng(31)
        for q in (2, 3, 5):
            for _ in range(30):
                w = random_wire(rng, q)
                expected = naive_mi_bits(q, list(w.table))
                assert abs(mc.mutual_information(w).bits - expected) < 1e-12

    def test_matches_dense_float_formula(self):
        """All 512 wires at q = 3, and seeded residue wires at q = 5..31 with
        every alphabet 2..q: a function of s1 alone (value-independent), of
        s0 alone (constant marginal), and random.  MI is recomputed here by
        the dense formula from counts gathered off the raw table."""
        wires = [mc.make_wire(3, [(idx >> p) & 1 for p in range(9)])
                 for idx in range(512)]
        rng = np.random.default_rng(33)
        for q in range(5, 32):
            s0, s1 = np.divmod(np.arange(q * q), q)
            for alphabet in range(2, q + 1):
                g = rng.integers(0, alphabet, size=q)
                for table in (g[s1], g[s0], rng.integers(0, alphabet, size=q * q)):
                    wires.append(mc.make_wire(q, table, alphabet_size=alphabet))
        n_constant = 0
        for w in wires:
            q = w.q
            x, s1 = np.divmod(np.arange(q * q), q)
            outputs = w.table[((x - s1) % q) * q + s1]
            joint = np.zeros((q, w.alphabet_size), dtype=np.int64)
            np.add.at(joint, (x, outputs), 1)
            constant = bool((joint == joint[0]).all())
            nz = joint > 0
            colsum = np.broadcast_to(joint.sum(axis=0), joint.shape)
            ratio = joint[nz] * q / colsum[nz]
            expected = float(np.sum(joint[nz] / (q * q) * np.log2(ratio)))
            mi = mc.mutual_information(w)
            assert mi.is_zero == constant
            if constant:
                n_constant += 1
                assert mi.bits == 0.0 and expected == 0.0
            else:
                assert expected > 0.0
            assert math.isclose(mi.bits, expected, rel_tol=1e-9)
        # The 56 at q = 3, and the two structured wires of every (q, alphabet).
        assert n_constant >= 56 + 2 * sum(q - 1 for q in range(5, 32))

    def test_is_zero_iff_constant_marginal_sampled(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            w = random_wire(rng, 3)
            assert mc.mutual_information(w).is_zero == mc.has_constant_marginal(w)

    def test_recombined_residue_wire_is_log2_q(self):
        """w = s0 + s1 reveals the secret: one count q per row, and the key
        sum rounds to the correctly rounded log2(q)."""
        q = 3329
        s = np.arange(q, dtype=np.uint16)
        w = mc.make_wire(q, ((s[:, None] + s) % q).ravel(), alphabet_size=q)
        assert mc.mutual_information(w).bits == math.log2(q)

    # A step of 20 cells streams each wire below whose marginal table is
    # larger (`WireFunction._stream`, all at q >= 11), in blocks of 1 to 4 rows
    # whose key histograms are merged many times.
    @pytest.mark.parametrize("step", [_steps.STEP_CELLS, 20])
    def test_within_4_ulps_of_a_decimal_reference(self, monkeypatch, step):
        """Random wires and wires g((s0 + s1) % q) whose first half of secrets
        share row 0's histogram, against the definition summed in 50-digit
        decimals from naive histograms.  Each term is rounded on its own, so
        the error is bounded in ulps of the sum of the terms' magnitudes:
        4 ulps of the reference where the terms do not cancel, and up to 35
        ulps of it at q = 7 (a Boolean wire whose magnitudes sum to 14 times
        the reference)."""
        monkeypatch.setattr(_steps, "STEP_CELLS", step)
        rng = np.random.default_rng(34)
        for q in (2, 3, 5, 7, 11, 13):
            s0, s1 = np.divmod(np.arange(q * q), q)
            for alphabet in sorted({2, 3, q}):
                g = rng.integers(0, alphabet, q)
                g[:(q + 1) // 2] = g[0]
                for table in (rng.integers(0, alphabet, q * q), g[(s0 + s1) % q]):
                    rows = [naive_hist(q, list(table), x, alphabet) for x in range(q)]
                    colsum = [sum(col) for col in zip(*rows)]
                    with decimal.localcontext(decimal.Context(prec=50)):
                        terms = [Decimal(h) / (q * q) * (Decimal(h * q) / colsum[v]).ln()
                                 / Decimal(2).ln()
                                 for row in rows for v, h in enumerate(row) if h]
                        ref, magnitude = sum(terms), sum(map(abs, terms))
                    bits = mc.mutual_information(mc.make_wire(q, table, alphabet)).bits
                    assert abs(Decimal(bits) - ref) <= 4 * Decimal(math.ulp(float(magnitude)))

    def test_random_residue_wire_peak_memory(self, monkeypatch):
        """classify and mutual_information of a random q = 3329 residue wire
        on 2 threads hold a merged key histogram, a few steps of keys and the
        blocks in flight beside the table: numpy's traced peak stays below
        32 MiB."""
        monkeypatch.setattr(_steps, "usable_cpus", lambda: 2)
        q = 3329
        w = mc.make_wire(q, np.random.default_rng(1).integers(0, q, q * q, dtype=np.uint16),
                         alphabet_size=q)
        tracemalloc.start()
        try:
            verdict, mi = mc.classify(w), mc.mutual_information(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict is mc.Verdict.NON_CONSTANT_MARGINAL and mi.bits > 0
        assert peak < 32 << 20


class TestWitness:
    def test_q2_table(self):
        assert list(mc.t6_witness(2).table) == [1, 1, 0, 0]

    def test_q1_rejected(self):
        with pytest.raises(ValueError):
            mc.t6_witness(1)

    @pytest.mark.parametrize("q", [2, 3, 5, 17, 257, 3329])
    def test_conservative_at_many_moduli(self, q):
        assert mc.classify(mc.t6_witness(q)) is mc.Verdict.CONSTANT_MARGINAL_ONLY


class TestTranslationBijection:
    def test_examples(self):
        assert mc.translation_bijection_check(mc.t6_witness(5), 1, 4)
        assert mc.translation_bijection_check(mc.t6_witness(2), 0, 1)
        assert mc.translation_bijection_check(mc.t6_witness(3329), 0, 767)

    def test_against_independent_set_enumeration(self):
        q = 3329
        w = mc.t6_witness(q)
        set_a = {s1 for s1 in range(q) if (0 - s1) % q == 0}
        set_b = {s1 for s1 in range(q) if (767 - s1) % q == 0}
        assert set_a == {0} and set_b == {767}
        shift = 767
        assert {(s + shift) % q for s in set_a} == set_b

    def test_cap(self):
        w = mc.t6_witness(5)
        with pytest.raises(ValueError, match="cap"):
            mc.translation_bijection_check(w, 0, 1, cap=3)

    @pytest.mark.parametrize("cap", [2.5, True, 5.0])
    def test_cap_must_be_an_integer(self, cap):
        with pytest.raises(ValueError, match="cap must be an integer"):
            mc.translation_bijection_check(mc.t6_witness(5), 0, 1, cap=cap)


class TestWireJson:
    def test_round_trip(self, tmp_path):
        w = mc.t6_witness(5)
        path = tmp_path / "wire.json"
        mc.save_wire(w, path)
        back = mc.load_wire(path)
        assert back.q == 5 and back.alphabet_size == 2
        assert np.array_equal(back.table, w.table)

    def test_dict_schema(self):
        doc = mc.wire_to_dict(mc.t6_witness(2))
        assert doc == {"q": 2, "alphabet": 2, "order": WIRE_ORDER,
                       "table": [1, 1, 0, 0]}

    def test_truncated_table_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"q": 2, "alphabet": 2, "order": "s0_major", "table": [1, 0, 1]}')
        with pytest.raises(mc.WireFormatError, match="3 entries"):
            mc.load_wire(path)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"q": 2,,}')
        with pytest.raises(mc.WireFormatError, match="line 1 column"):
            mc.load_wire(path)

    def test_wrong_order_rejected(self):
        with pytest.raises(mc.WireFormatError, match="order"):
            mc.wire_from_dict({"q": 1, "alphabet": 2, "order": "s1_major",
                               "table": [0]})

    def test_missing_key_rejected(self):
        with pytest.raises(mc.WireFormatError, match="missing"):
            mc.wire_from_dict({"q": 1, "alphabet": 2, "table": [0]})

    def test_entry_out_of_alphabet_rejected(self):
        with pytest.raises(mc.WireFormatError, match="index 2"):
            mc.wire_from_dict({"q": 2, "alphabet": 2, "order": "s0_major",
                               "table": [0, 1, 2, 0]})
