import tracemalloc

import numpy as np
import pytest

import maskcheck as mc
from maskcheck import census, cli

from test_wires import naive_constant_marginal, naive_is_vi

# Expected censuses, derived before the build:
#  - value-independent wires depend only on the mask, so there are 2^q;
#  - constant-marginal wires put the same number of true cells on each of
#    the q reparametrization diagonals: sum_k C(q,k)^q.
# q=2: vi 4, cm 1+4+1 = 6;  q=3: vi 8, cm 1+27+27+1 = 56;
# q=4: vi 16, cm 1+256+1296+256+1 = 1810;  q=5: vi 32, cm 2+2*3125+2*10^5 = 206252.
EXPECTED = {
    2: dict(total=16, vi=4, cm=6),
    3: dict(total=512, vi=8, cm=56),
    4: dict(total=65536, vi=16, cm=1810),
    5: dict(total=33_554_432, vi=32, cm=206_252),
}


def naive_census(q):
    """Census by per-wire loops over dense tables; the independent oracle."""
    n_vi = n_cm = n_bad = 0
    for idx in range(1 << (q * q)):
        table = [(idx >> p) & 1 for p in range(q * q)]
        vi = naive_is_vi(q, table)
        cm = naive_constant_marginal(q, table, 2)
        n_vi += vi
        n_cm += cm
        n_bad += vi and not cm
    return n_vi, n_cm, n_bad


class TestSmallCensuses:
    @pytest.mark.parametrize("q", [2, 3])
    def test_against_naive_oracle(self, q):
        n_vi, n_cm, n_bad = naive_census(q)
        report = mc.run_census(q)
        assert (n_vi, n_cm, n_bad) == (
            report.count_value_independent,
            report.count_constant_marginal,
            report.soundness_violations,
        )

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_expected_counts(self, q):
        report = mc.run_census(q)
        exp = EXPECTED[q]
        assert report.total_wires == exp["total"]
        assert report.count_value_independent == exp["vi"]
        assert report.count_constant_marginal == exp["cm"]
        assert report.count_conservative == exp["cm"] - exp["vi"]
        assert report.count_non_constant == exp["total"] - exp["cm"]
        assert report.soundness_violations == 0

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_formula_agreement(self, q):
        assert mc.constant_marginal_count_formula(q) == EXPECTED[q]["cm"]
        assert mc.run_census(q).count_constant_marginal == \
            mc.constant_marginal_count_formula(q)

    def test_conservative_wires_exist(self):
        for q in (2, 3, 4):
            assert mc.run_census(q).count_conservative >= 1

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            mc.run_census(6)
        with pytest.raises(ValueError):
            mc.run_census(0)


class TestDeterminism:
    def test_counts_identical_across_worker_counts(self):
        base = mc.run_census(4, parallelism=1).to_dict()
        for workers in (2, 3):
            assert mc.run_census(4, parallelism=workers).to_dict() == base

    def test_parallelism_below_one_rejected(self):
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            mc.run_census(2, parallelism=0)


def enumerated_counts(q):
    """(vi, cm, vi & ~cm) totals of classify_packed over every wire index,
    2^20 indices at a time: the census by enumeration, as the key tables
    (patched or not) answer it."""
    n_vi = n_cm = n_bad = 0
    for start in range(0, 1 << q * q, 1 << 20):
        vi, cm = mc.classify_packed(q, np.arange(start, min(start + (1 << 20), 1 << q * q)))
        n_vi += int(np.count_nonzero(vi))
        n_cm += int(np.count_nonzero(cm))
        n_bad += int(np.count_nonzero(vi & ~cm))
    return n_vi, n_cm, n_bad


def numpy_key_tables(q):
    """The six key tables built with numpy arrays, as the census once did:
    keys as bit patterns times weights, VI and CM by filtering the fields
    of every key.  The oracle of the census's own tables."""
    bits = census._FIELD_BITS
    n, k = q * q, q * q // 2
    pos = np.arange(n)
    col = 1 << bits * (pos % q)
    diag = 1 << bits * ((pos // q + pos % q) % q)

    def keys(weights):
        pattern = (np.arange(1 << len(weights))[:, None] >> np.arange(len(weights))) & 1
        return (pattern @ weights).astype(np.int64)

    fields = (np.arange(1 << bits * q)[:, None] >> bits * np.arange(q)) & ((1 << bits) - 1)
    return (keys(col[:k]), keys(col[k:]), keys(diag[:k]), keys(diag[k:]),
            ((fields == 0) | (fields == q)).all(axis=1), (fields == fields[:, :1]).all(axis=1))


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_key_tables_match_numpy_oracle(q):
    """Each cached table equals its numpy construction byte for byte (int64
    keys, one byte per flag), and none of them can be written."""
    for table, oracle in zip(census._key_tables(q), numpy_key_tables(q), strict=True):
        assert bytes(table) == oracle.tobytes()
        with pytest.raises(TypeError):
            table[0] = 1


def test_cold_census_traces_within_twice_its_tables():
    """A q = 5 census from cold keeps little beside the six key tables it
    builds: its traced peak stays within twice their bytes (512 KiB), so no
    step groups every half pattern or builds a table as a list of ints."""
    census._key_tables.cache_clear()
    tracemalloc.start()
    try:
        report = mc.run_census(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.count_value_independent == EXPECTED[5]["vi"]
    table_bytes = sum(len(bytes(t)) for t in census._key_tables(5))
    assert table_bytes == 256 << 10
    assert peak <= 2 * table_bytes


def census_counts(q):
    r = mc.run_census(q)
    return r.count_value_independent, r.count_constant_marginal, r.soundness_violations


def patch_key_table(monkeypatch, which, key, value):
    """Make the VI (which=4) or CM (which=5) key table answer `value` at `key`."""
    real = census._key_tables

    def tables(q):
        t = list(real(q))
        t[which] = bytearray(t[which])
        t[which][key(q)] = value
        return tuple(t)

    monkeypatch.setattr(census, "_key_tables", tables)


class TestCountByClass:
    """The census counts classes of keys; enumeration is its oracle."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_matches_enumeration(self, q):
        assert census_counts(q) == enumerated_counts(q)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_listed_vi_wires(self, q):
        lo, hi = census._value_independent_pairs(q)
        index = [h << q * q // 2 | low for low, h in zip(lo, hi)]
        assert len(index) == len(set(index)) == 1 << q
        vi, _ = mc.classify_packed(q, index)
        assert vi.all()
        for i in index:
            assert mc.classify(mc.index_to_wire(q, i)) is mc.Verdict.VALUE_INDEPENDENT

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_vi_false_at_full_columns(self, monkeypatch, q):
        # Every field q: as a column key, that of the all-ones wire too.
        patch_key_table(monkeypatch, 4, full_diagonals_key, False)
        n_vi, n_cm, n_bad = census_counts(q)
        assert (n_vi, n_cm, n_bad) == ((1 << q) - 1, EXPECTED[q]["cm"], 0)

    # Key 1: one true cell, on diagonal 0 (q wires).  Key 7: seven true
    # cells on diagonal 0, which no wire at q <= 5 has.
    @pytest.mark.parametrize("key,wires_per_q", [(1, 1), (7, 0)])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_cm_true_at_extra_key(self, monkeypatch, q, key, wires_per_q):
        before = enumerated_counts(q)
        patch_key_table(monkeypatch, 5, lambda q: key, True)
        after = enumerated_counts(q)
        assert after[1] - before[1] == wires_per_q * q
        assert census_counts(q) == after

    # Key 1: one true cell, in column 0 (q wires, none of them with a
    # constant marginal), so one VI key matches many high patterns.
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_vi_true_at_extra_key(self, monkeypatch, q):
        patch_key_table(monkeypatch, 4, lambda q: 1, True)
        assert census_counts(q) == enumerated_counts(q) == \
            ((1 << q) + q, EXPECTED[q]["cm"], q)


def full_diagonals_key(q):
    """The diagonal key of the all-ones wire: q true cells on every diagonal."""
    return sum(q << census._FIELD_BITS * x for x in range(q))


class TestSoundnessCounter:
    """A constant-marginal table that lies at one key must be caught there."""

    @staticmethod
    def break_cm_at(monkeypatch, key_of):
        real = census._key_tables

        def tables(q):
            *keys, vi, cm = real(q)
            cm = bytearray(cm)
            cm[key_of(q)] = False
            return (*keys, vi, cm)

        monkeypatch.setattr(census, "_key_tables", tables)

    # Key 0 is only the all-zero wire (first step); the full key only the
    # all-ones wire (last step).  Both are value-independent.
    broken_keys = pytest.mark.parametrize(
        "key_of", [lambda q: 0, full_diagonals_key], ids=["all-zero", "all-ones"])

    @broken_keys
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_one_violation_counted(self, monkeypatch, q, key_of):
        self.break_cm_at(monkeypatch, key_of)
        report = mc.run_census(q)
        assert report.soundness_violations == 1
        assert report.count_value_independent == EXPECTED[q]["vi"]
        assert report.count_constant_marginal == EXPECTED[q]["cm"] - 1

    @broken_keys
    def test_cli_exits_3(self, monkeypatch, capsys, key_of):
        self.break_cm_at(monkeypatch, key_of)
        assert cli.main(["census", "--q", "5"]) == 3
        out, err = capsys.readouterr()
        assert "  soundness violations:   1\n" in out
        assert err == ("error: census found 1 soundness violations "
                       "(value-independent wires with non-constant marginals)\n")

    def test_no_cm_key_exits_3_not_2(self, monkeypatch, capsys):
        """With every constant-marginal key false, each of the 8
        value-independent wires at q = 3 is a soundness violation and no
        wire is constant-marginal: a contradiction, not bad input."""
        real = census._key_tables
        monkeypatch.setattr(census, "_key_tables",
                            lambda q: (*real(q)[:5], bytes(len(real(q)[5]))))
        assert cli.main(["census", "--q", "3"]) == 3
        out, err = capsys.readouterr()
        assert "  constant marginal:      0\n" in out
        assert "  soundness violations:   8\n" in out
        assert err == ("error: census found 8 soundness violations "
                       "(value-independent wires with non-constant marginals)\n")


class TestPackedDenseAgreement:
    def test_spot_check_examples(self):
        # all-false wire
        assert mc.spot_check(2, 0).verdict is mc.Verdict.VALUE_INDEPENDENT
        # the indicator-of-zero table [[1,1],[0,0]] packs to index 0b0011
        witness_idx = mc.wire_to_index(mc.t6_witness(2))
        assert witness_idx == 3
        assert mc.spot_check(2, witness_idx).verdict is \
            mc.Verdict.CONSTANT_MARGINAL_ONLY
        # [s0=0 and s1=0] has only bit (0,0) set
        assert mc.spot_check(2, 1).verdict is mc.Verdict.NON_CONSTANT_MARGINAL

    def test_spot_check_reports_histograms_and_dependence(self):
        rep = mc.spot_check(2, 3)
        assert rep.marginals == ((1, 1), (1, 1))
        assert rep.s1_dependence is None
        rep = mc.spot_check(2, 0b1010)  # w = s1, mask-only
        assert rep.verdict is mc.Verdict.VALUE_INDEPENDENT
        assert rep.s1_dependence == (0, 1)

    def test_index_round_trip(self):
        for q in (2, 3):
            for idx in (0, 1, (1 << (q * q)) - 1, 5):
                assert mc.wire_to_index(mc.index_to_wire(q, idx)) == idx
        with pytest.raises(ValueError, match="^only Boolean wires have a packed index$"):
            mc.wire_to_index(mc.make_wire(2, [0, 1, 2, 0], alphabet_size=3))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            mc.index_to_wire(2, 16)
        with pytest.raises(ValueError):
            mc.spot_check(2, -1)

    def test_packed_matches_dense_on_every_wire_q4(self):
        indices = np.arange(1 << 16)
        vi, cm = mc.classify_packed(4, indices.astype(np.uint32))
        tables = (indices[:, None] >> np.arange(16)[None, :]) & 1
        codes = mc.classify_cells_bulk(4, tables)
        assert np.array_equal(codes, np.where(vi, 0, np.where(cm, 1, 2)))

    @pytest.mark.parametrize("q,index", [
        (5, 1 << 25), (2, 16), (2, -1), (1, 2), (3, 1 << 40),
    ])
    def test_packed_out_of_range_rejected(self, q, index):
        with pytest.raises(ValueError) as dense:
            mc.index_to_wire(q, index)
        with pytest.raises(ValueError) as scalar:
            mc.packed_verdict(q, index)
        with pytest.raises(ValueError) as batch:
            mc.classify_packed(q, np.array([0, index, 1]))
        assert str(scalar.value) == str(batch.value) == str(dense.value)

    def test_packed_uint32_above_range_rejected(self):
        with pytest.raises(ValueError, match=r"out of range \[0, 2\^4\)"):
            mc.classify_packed(2, np.array([1 << 31], dtype=np.uint32))

    @pytest.mark.parametrize("bad", [
        np.array([1.0, 2.0]), np.array([True]), np.array(["3"]),
    ])
    def test_packed_non_integer_rejected(self, bad):
        with pytest.raises(ValueError, match="must be integers"):
            mc.classify_packed(2, bad)

    @pytest.mark.parametrize("bad", [1.0, 1.5, "3", None, True])
    def test_packed_verdict_non_integer_rejected(self, bad):
        with pytest.raises(ValueError, match="^wire_index must be an integer, got "):
            mc.packed_verdict(2, bad)

    def test_packed_accepts_any_integer_dtype(self):
        for dtype in (np.uint8, np.int8, np.int64, np.uint64):
            vi, cm = mc.classify_packed(2, np.array([0, 3, 10], dtype=dtype))
            assert vi.tolist() == [True, False, True]
            assert cm.tolist() == [True, True, True]

    def test_packed_matches_dense_on_random_indices_q5(self):
        rng = np.random.default_rng(55)
        indices = rng.integers(0, 1 << 25, size=10_000)
        vi, cm = mc.classify_packed(5, indices.astype(np.uint32))
        # Dense verdicts in bulk: decode every index and run the dense path.
        tables = (indices[:, None] >> np.arange(25)[None, :]) & 1
        codes = mc.classify_cells_bulk(5, tables)
        packed_codes = np.where(vi, 0, np.where(cm, 1, 2))
        assert np.array_equal(codes, packed_codes)
        # and spot-check the scalar paths on a slice
        for idx in indices[:100]:
            assert mc.packed_verdict(5, int(idx)) is \
                mc.classify(mc.index_to_wire(5, int(idx)))


class TestReportValidation:
    def test_partition_invariant_enforced(self):
        with pytest.raises(ValueError):
            mc.CensusReport(
                q=2, total_wires=16, count_value_independent=4,
                count_constant_marginal=6, count_conservative=2,
                count_non_constant=9, soundness_violations=0,
                wall_time_seconds=0.0,
            )

    def test_vi_within_cm_enforced(self):
        with pytest.raises(ValueError):
            mc.CensusReport(
                q=2, total_wires=16, count_value_independent=7,
                count_constant_marginal=6, count_conservative=-1,
                count_non_constant=10, soundness_violations=0,
                wall_time_seconds=0.0,
            )

    def test_replace_and_make_enforce_both_checks(self):
        """`_replace` and `_make` build through the constructor, so neither
        makes a report the constructor refuses."""
        report = mc.run_census(2)
        with pytest.raises(ValueError, match="partition"):
            report._replace(count_non_constant=report.count_non_constant + 1)
        with pytest.raises(ValueError, match="more value-independent"):
            report._replace(count_value_independent=report.count_constant_marginal + 1)
        with pytest.raises(ValueError, match="partition"):
            mc.CensusReport._make([*report[:5], 0, *report[6:]])
        assert report._replace(soundness_violations=2).soundness_violations == 2
        assert mc.CensusReport._make(report) == report
