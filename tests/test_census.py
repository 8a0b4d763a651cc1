import os

import numpy as np
import pytest

import maskcheck as mc
from maskcheck import census

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

    @pytest.mark.parametrize("q", [2, 3, 4])
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

    @pytest.mark.parametrize("parallelism,cpus,batch_size,expected", [
        (10**6, 3, 8, 3),     # 64 chunks: capped by the CPUs
        (10**6, 64, 256, 2),  # 2 chunks: capped by the chunks
        (2, 64, 8, 2),
    ])
    def test_pool_size_is_bounded(self, monkeypatch, parallelism, cpus,
                                  batch_size, expected):
        sizes = []

        class RecordingPool:  # runs the jobs in-process; starts nothing
            def __init__(self, n):
                sizes.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return list(map(fn, jobs))

        monkeypatch.setattr(census, "Pool", RecordingPool)
        monkeypatch.setattr(census, "_usable_cpus", lambda: cpus)
        report = mc.run_census(3, parallelism=parallelism, batch_size=batch_size)
        assert sizes == [expected]
        assert report.to_dict() == mc.run_census(3).to_dict()

    def test_usable_cpus_within_affinity(self):
        assert 1 <= census._usable_cpus() <= (os.cpu_count() or 1)

    def test_batch_size_does_not_matter(self):
        a = mc.run_census(3, batch_size=7).to_dict()
        b = mc.run_census(3, batch_size=512).to_dict()
        assert a == b


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

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            mc.index_to_wire(2, 16)
        with pytest.raises(ValueError):
            mc.spot_check(2, -1)

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
