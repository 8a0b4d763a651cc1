import numpy as np
import pytest

import maskcheck as mc

ML_KEM_Q = 3329
ML_DSA_Q = 8380417


class TestNoOverflowBounds:
    def test_range_extremes(self):
        # minimum of the intermediate range: x=0, s1=q-1 gives t=1
        assert mc.no_overflow_bounds(5, 0, 4) == (True, True)
        # maximum: x=q-1, s1=0 gives t=2q-1
        assert mc.no_overflow_bounds(5, 4, 0) == (True, True)

    def test_mldsa_boundary(self):
        # t = 16,760,833 < 2q = 16,760,834
        assert mc.no_overflow_bounds(ML_DSA_Q, ML_DSA_Q - 1, 0) == (True, True)
        assert ML_DSA_Q - 1 + ML_DSA_Q == 16_760_833

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 64])
    def test_exhaustive_small_q(self, q):
        for x in range(q):
            for s1 in range(q):
                lower_ok, upper_ok = mc.no_overflow_bounds(q, x, s1)
                assert lower_ok and upper_ok
                # independent recomputation of the claim
                t = x + q - s1
                assert 1 <= t < 2 * q

    def test_mlkem_exhaustive(self):
        q = ML_KEM_Q
        x = np.arange(q, dtype=np.int32)[:, None]
        s1 = np.arange(q, dtype=np.int32)[None, :]
        t = x + q - s1
        assert int(t.min()) >= 1 and int(t.max()) < 2 * q

    def test_mldsa_random_pairs(self):
        q = ML_DSA_Q
        rng = np.random.default_rng(24)
        pairs = rng.integers(0, q, size=(100_000, 2))
        for x, s1 in pairs[:200].tolist():
            assert mc.no_overflow_bounds(q, x, s1) == (True, True)
        t = pairs[:, 0].astype(np.int64) + q - pairs[:, 1]
        assert int(t.min()) >= 1 and int(t.max()) < 2 * q

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            mc.no_overflow_bounds(5, 5, 0)
        with pytest.raises(ValueError):
            mc.no_overflow_bounds(5, 0, -1)
        with pytest.raises(ValueError):
            mc.no_overflow_bounds(0, 0, 0)


class TestWidthAdmissibility:
    def test_nist_instances_at_24_bits(self):
        assert mc.WidthConfig(ML_KEM_Q, 24).admissible
        assert mc.WidthConfig(ML_DSA_Q, 24).admissible

    def test_boundary_is_strict(self):
        # 2q = 2^24 exactly: does not fit
        assert not mc.WidthConfig(8388608, 24).admissible
        assert mc.WidthConfig(8388607, 24).admissible

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.WidthConfig(0, 24)
        with pytest.raises(ValueError):
            mc.WidthConfig(5, 0)


class TestUremReparam:
    def test_single_step(self):
        cfg = mc.WidthConfig(ML_KEM_Q, 24)
        assert mc.urem_reparam(cfg, 0, 3328) == 1
        assert mc.urem_round_trip(cfg, 0, 3328)

    def test_exhaustive_equivalence_small_q(self):
        for q in (1, 2, 3, 5, 17, 64):
            cfg = mc.WidthConfig(q, 24)
            for x in range(q):
                for s1 in range(q):
                    assert mc.urem_reparam(cfg, x, s1) == (x - s1) % q
                    assert mc.urem_round_trip(cfg, x, s1)

    @pytest.mark.parametrize("q", [ML_KEM_Q, ML_DSA_Q])
    def test_sampled_equivalence_nist_moduli(self, q):
        cfg = mc.WidthConfig(q, 24)
        rng = np.random.default_rng(q)
        for x, s1 in rng.integers(0, q, size=(2000, 2)).tolist():
            assert mc.urem_reparam(cfg, x, s1) == (x - s1) % q
            assert mc.urem_round_trip(cfg, x, s1)

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 17, 64])
    def test_array_ops_equal_scalar_ops_exhaustive(self, q):
        cfg = mc.WidthConfig(q, 24)
        x, s1 = np.divmod(np.arange(q * q), q)
        s0 = mc.urem_reparam(cfg, x, s1)
        back = mc.urem_recombine(cfg, s0, s1)
        for i, (xi, si) in enumerate(zip(x.tolist(), s1.tolist())):
            assert s0[i] == mc.urem_reparam(cfg, xi, si)
            assert back[i] == mc.urem_recombine(cfg, int(s0[i]), si) == xi

    @pytest.mark.parametrize("q", [ML_KEM_Q, ML_DSA_Q])
    def test_array_ops_equal_scalar_ops_sampled(self, q):
        cfg = mc.WidthConfig(q, 24)
        x, s1 = np.random.default_rng(q + 1).integers(0, q, size=(2, 100_000))
        s0 = mc.urem_reparam(cfg, x, s1)
        back = mc.urem_recombine(cfg, s0, s1)
        scalar_s0 = [mc.urem_reparam(cfg, xi, si) for xi, si in zip(x.tolist(), s1.tolist())]
        assert s0.tolist() == scalar_s0
        assert back.tolist() == [mc.urem_recombine(cfg, a, si)
                                 for a, si in zip(scalar_s0, s1.tolist())] == x.tolist()

    @pytest.mark.parametrize("x,s1", [(ML_KEM_Q, 0), (-1, 0), (0, ML_KEM_Q),
                                      (0, -1), (ML_KEM_Q, -1)])
    def test_array_residue_refusal_names_the_extreme(self, x, s1):
        """One pair out of range among valid ones: the array call raises the
        scalar call's message for that pair."""
        cfg = mc.WidthConfig(ML_KEM_Q, 24)
        xs, s1s = np.full(9, 7), np.full(9, 3)
        xs[4], s1s[4] = x, s1
        with pytest.raises(ValueError) as scalar:
            mc.urem_reparam(cfg, x, s1)
        with pytest.raises(ValueError) as array:
            mc.urem_reparam(cfg, xs, s1s)
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("value", [-1, ML_KEM_Q + 3000])
    def test_array_word_overflow_names_the_extreme(self, value):
        cfg = mc.WidthConfig(ML_KEM_Q, 12)
        values = np.full(5, 4095)
        values[2] = value
        with pytest.raises(mc.WordOverflowError) as scalar:
            mc.bitvec._fit(cfg, value, "x + q")
        with pytest.raises(mc.WordOverflowError) as array:
            mc.bitvec._fit(cfg, values, "x + q")
        assert str(array.value) == str(scalar.value) == (
            f"x + q produced {value}, outside the 12-bit unsigned range")

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, object])
    def test_empty_batches_give_empty_results(self, dtype):
        """An empty batch has no word outside the range: both word ops and
        the bound check return empty arrays instead of failing to reduce."""
        cfg, empty = mc.WidthConfig(ML_KEM_Q, 24), np.zeros(0, dtype=dtype)
        assert mc.urem_reparam(cfg, empty, empty).shape == (0,)
        assert mc.urem_reparam(cfg, 5, empty).shape == (0,)
        assert mc.urem_recombine(cfg, empty, empty).shape == (0,)
        assert [b.shape for b in mc.no_overflow_bounds(ML_KEM_Q, empty, empty)] == [(0,), (0,)]

    def test_inadmissible_width_rejected(self):
        cfg = mc.WidthConfig(8388608, 24)
        with pytest.raises(ValueError, match="inadmissible"):
            mc.urem_reparam(cfg, 1, 0)

    def test_inputs_must_be_reduced(self):
        cfg = mc.WidthConfig(ML_KEM_Q, 24)
        with pytest.raises(ValueError):
            mc.urem_reparam(cfg, ML_KEM_Q, 0)
        with pytest.raises(ValueError):
            mc.urem_reparam(cfg, 0, ML_KEM_Q)

    @pytest.mark.parametrize("x,s1", [(ML_KEM_Q, 0), (-1, 0), (0, ML_KEM_Q),
                                      (0, -1), (ML_KEM_Q, -1)])
    def test_residue_refusal_matches_no_overflow_bounds(self, x, s1):
        cfg = mc.WidthConfig(ML_KEM_Q, 24)
        with pytest.raises(ValueError) as bounds:
            mc.no_overflow_bounds(ML_KEM_Q, x, s1)
        with pytest.raises(ValueError) as reparam:
            mc.urem_reparam(cfg, x, s1)
        name, value = ("x", x) if not 0 <= x < ML_KEM_Q else ("s1", s1)
        assert str(bounds.value) == str(reparam.value) == (
            f"{name}={value} outside [0, {ML_KEM_Q})")

    @pytest.mark.parametrize("q", [0, -1, -3329])
    def test_modulus_refusal_matches_width_config(self, q):
        """The modulus is refused first, before the residues or the width,
        with one message."""
        with pytest.raises(ValueError) as bounds:
            mc.no_overflow_bounds(q, -1, -1)
        with pytest.raises(ValueError) as config:
            mc.WidthConfig(q, 0)
        assert str(bounds.value) == str(config.value) == f"q must be >= 1, got {q}"

    def test_word_overflow_is_a_distinct_error(self):
        # Bypass the admissibility gate to show the checked ops would
        # catch a too-narrow register on their own.
        cfg = mc.WidthConfig(ML_KEM_Q, 12)
        with pytest.raises(mc.WordOverflowError):
            mc.bitvec._fit(cfg, ML_KEM_Q + 3000, "x + q")

    def test_recombine_overflow_detected(self):
        cfg = mc.WidthConfig(3, 2)  # 2q = 6 > 4: inadmissible on purpose
        with pytest.raises(ValueError):
            mc.urem_recombine(cfg, 2, 2)
