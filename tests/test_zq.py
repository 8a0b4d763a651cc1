import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskcheck as mc

NIST_MODULI = (3329, 8380417)


def E(q, v):
    return mc.Modulus(q).element(v)


class TestModulus:
    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            mc.Modulus(0)
        with pytest.raises(ValueError):
            mc.Modulus(-7)

    def test_nontrivial_flag(self):
        assert not mc.Modulus(1).nontrivial
        assert mc.Modulus(2).nontrivial
        assert mc.Modulus(8380417).nontrivial

    def test_represents_nist_moduli_exactly(self):
        for q in NIST_MODULI:
            assert mc.Modulus(q).q == q
        assert repr(mc.Modulus(5)) == "Modulus(5)"


class TestZqElement:
    def test_canonicalizes_on_construction(self):
        assert E(5, 7).value == 2
        assert E(5, -1).value == 4
        assert E(1, 123).value == 0
        assert int(E(5, 7)) == 2

    def test_arithmetic_stays_canonical(self):
        a, b = E(7, 6), E(7, 5)
        for r in (a + b, a - b, a * b, -a):
            assert 0 <= r.value < 7

    @pytest.mark.parametrize("q", [7, 3329, 8380417, 2**70 + 1])
    def test_arithmetic_results_equal_built_elements(self, q):
        """A result of the ring's own arithmetic equals, hashes and prints
        as the element built from the same int, and is a ZqElement."""
        a, b = E(q, q - 2), E(q, 5)
        for r, v in ((a + b, q + 3), (a - b, q - 7), (a * b, 5 * (q - 2)), (-a, 2)):
            built = E(q, v)
            assert type(r) is mc.ZqElement and r.modulus is a.modulus
            assert (r, hash(r), repr(r), r.value) == (built, hash(built), repr(built), v % q)

    def test_modulus_mismatch_raises(self):
        with pytest.raises(ValueError):
            E(5, 1) + E(7, 1)
        with pytest.raises(ValueError):
            mc.arith_reparam(E(5, 1), E(7, 1))
        with pytest.raises(TypeError, match="^expected ZqElement, got int$"):
            E(5, 1) + 3


class TestArithReparam:
    def test_examples(self):
        assert mc.arith_reparam(E(5, 3), E(5, 4)).value == 4  # 3-4 = -1 = 4 mod 5
        assert mc.arith_reparam(E(3329, 0), E(3329, 1)).value == 3328
        assert mc.arith_reparam(E(8380417, 7), E(8380417, 7)).value == 0

    def test_round_trip_examples(self):
        assert mc.arith_reparam_round_trip(E(3329, 123), E(3329, 3000))
        assert mc.arith_reparam_round_trip(E(1, 0), E(1, 0))
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, s1 = rng.integers(0, 8380417, size=2)
            assert mc.arith_reparam_round_trip(E(8380417, int(x)), E(8380417, int(s1)))

    def test_round_trip_exhaustive_small_q(self):
        for q in range(1, 8):
            for x in range(q):
                for s1 in range(q):
                    assert mc.arith_reparam_round_trip(E(q, x), E(q, s1))

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.integers(min_value=1, max_value=2**31),
        x=st.integers(min_value=0, max_value=2**31),
        s1=st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_property(self, q, x, s1):
        assert mc.arith_reparam_round_trip(E(q, x), E(q, s1))

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.sampled_from([1, 2, 5, 3329, 8380417]),
        x=st.integers(min_value=0, max_value=2**31),
        s1=st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_at_named_moduli(self, q, x, s1):
        assert mc.arith_reparam_round_trip(E(q, x), E(q, s1))


class TestBijectivity:
    def test_examples(self):
        assert mc.arith_reparam_is_bijection(5, 2)
        assert mc.arith_reparam_is_bijection(2, 0)
        assert mc.arith_reparam_is_bijection(3329, 767)

    def test_bijection_by_independent_set_count(self):
        # Same claim, different machinery: collect images in a Python set.
        for q in (2, 3, 5, 17):
            for s1 in range(q):
                images = {(x - s1) % q for x in range(q)}
                assert len(images) == q

    def test_all_masks_small_q(self):
        for q in range(1, 65):
            for s1 in range(q):
                assert mc.arith_reparam_is_bijection(q, s1)

    def test_cap_exceeded(self):
        with pytest.raises(ValueError, match="cap"):
            mc.arith_reparam_is_bijection(8380417, 1)
        assert mc.arith_reparam_is_bijection(8380417, 1, cap=8380417)

    @pytest.mark.parametrize("cap", [2.5, True, 5.0])
    def test_cap_must_be_an_integer(self, cap):
        with pytest.raises(ValueError, match="cap must be an integer"):
            mc.arith_reparam_is_bijection(5, 1, cap=cap)
        assert mc.arith_reparam_is_bijection(5, 1, cap=np.int64(5))


class TestBoolReparam:
    def test_examples(self):
        w = mc.BitWord(24, 0xABCDEF)
        assert mc.bool_reparam(w, w).bits == 0
        assert mc.bool_reparam(mc.BitWord(1, 1), mc.BitWord(1, 0)).bits == 1

    @pytest.mark.parametrize("k", [1, 24, 64, 200])
    def test_xor_result_equals_built_word(self, k):
        x, s1 = mc.BitWord(k, (1 << k) - 1), mc.BitWord(k, 1)
        r, built = x ^ s1, mc.BitWord(k, (1 << k) - 2)
        assert type(r) is mc.BitWord
        assert (r, hash(r), repr(r), r.width, r.bits) == (
            built, hash(built), repr(built), k, (1 << k) - 2)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            mc.bool_reparam(mc.BitWord(8, 1), mc.BitWord(9, 1))
        with pytest.raises(TypeError, match="^expected BitWord, got int$"):
            mc.BitWord(8, 1) ^ 1

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            mc.BitWord(4, 16)
        with pytest.raises(ValueError, match="^width must be >= 0, got -1$"):
            mc.BitWord(-1, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.sampled_from([1, 8, 24, 64]),
        data=st.data(),
    )
    def test_round_trip_property(self, k, data):
        x = data.draw(st.integers(min_value=0, max_value=(1 << k) - 1))
        s1 = data.draw(st.integers(min_value=0, max_value=(1 << k) - 1))
        assert mc.bool_reparam_round_trip(mc.BitWord(k, x), mc.BitWord(k, s1))
