"""Base-field (Montgomery) arithmetic tests against wide-integer oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpair import fp, params
from bnpair.costmodel import with_counting
from oracles import mont_mul_oracle

P254 = params.paper_params().p
MOD = fp.PrimeModulus.from_int(P254)


def to_m(x):
    return fp.to_mont(x % P254, MOD)


class TestPrimeModulus:
    def test_constants(self):
        assert MOD.bitlen == 254
        assert MOD.r_mod_p == (1 << 256) % P254
        assert MOD.r2_mod_p == pow(1 << 256, 2, P254)
        # n' satisfies p * p' = -1 mod R
        assert (P254 * MOD.n_prime) % (1 << 256) == (1 << 256) - 1

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            fp.PrimeModulus.from_int(2**254)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            fp.PrimeModulus.from_int(P254 + 2 if (P254 + 2) % 2 else P254 + 4)

    def test_limbs_roundtrip(self):
        x = P254 - 12345
        assert fp.from_limbs(fp.limbs(x)) == x
        assert len(fp.limbs(x)) == fp.NUM_LIMBS


class TestMontMul:
    @given(st.integers(0, P254 - 1), st.integers(0, P254 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, a, b):
        assert fp.mont_mul(a, b, MOD) == mont_mul_oracle(a, b, P254)

    def test_edge_operands(self):
        edge = [0, 1, 2, P254 - 2, P254 - 1]
        for a in edge:
            for b in edge:
                assert fp.mont_mul(a, b, MOD) == mont_mul_oracle(a, b, P254)

    def test_mont_roundtrip(self):
        for x in (0, 1, 17, P254 - 1):
            assert fp.from_mont(fp.to_mont(x, MOD), MOD) == x

    def test_traced_path_agrees_with_fast_path(self):
        import random

        r = random.Random(5)
        for _ in range(50):
            a, b = r.randrange(P254), r.randrange(P254)
            got, trace = fp.mont_mul_traced(a, b, MOD)
            assert got == fp.mont_mul(a, b, MOD)
            assert len(trace) == fp.NUM_LIMBS

    def test_trace_structure(self):
        _, trace = fp.mont_mul_traced(123456789, 987654321, MOD)
        for i, step in enumerate(trace):
            assert step["i"] == i
            assert 0 <= step["q"] < (1 << fp.WORD_BITS)
            assert len(step["s_limbs"]) == fp.NUM_LIMBS + 1


class TestModularOps:
    @given(st.integers(0, P254 - 1), st.integers(0, P254 - 1))
    @settings(max_examples=200, deadline=None)
    def test_add_sub_neg(self, a, b):
        assert fp.add_mod(a, b, MOD) == (a + b) % P254
        assert fp.sub_mod(a, b, MOD) == (a - b) % P254
        assert fp.neg_mod(a, MOD) == (-a) % P254

    @given(st.integers(1, P254 - 1))
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, a):
        am = to_m(a)
        inv = fp.inv_mod(am, MOD)
        assert fp.mont_mul(am, inv, MOD) == MOD.r_mod_p  # 1 in Montgomery form

    def test_inverse_every_toy_residue(self, tiny):
        m = tiny.modulus
        for x in range(1, tiny.p):
            a = fp.to_mont(x, m)
            inv = fp.inv_mod(a, m)
            assert fp.from_mont(inv, m) * x % tiny.p == 1
            assert fp.mont_mul_raw(a, inv, m) == m.r_mod_p

    def test_inverse_counts_one_inversion(self, tiny, paper):
        for par in (tiny, paper):
            a = fp.to_mont(par.p - 2, par.modulus)
            _, counts = with_counting(lambda: fp.inv_mod(a, par.modulus))
            assert counts.i == 1
            assert counts.m == 0
            assert counts.as_dict() == {"i": 1, "direct_i": 1}

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            fp.inv_mod(0, MOD)

    def test_mul_small_signed(self):
        a = to_m(97)
        assert fp.from_mont(fp.mul_small(a, -5, MOD), MOD) == (-5 * 97) % P254


class TestHexCodec:
    def test_roundtrip(self):
        x = to_m(0xDEADBEEF)
        assert fp.decode_hex(fp.encode_hex(x, MOD), MOD) == x

    def test_encoding_is_plain_value(self):
        assert fp.encode_hex(to_m(1), MOD) == "0" * 63 + "1"
        assert len(fp.encode_hex(to_m(12345), MOD)) == 64

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fp.decode_hex(f"{P254:064x}", MOD)

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            fp.decode_hex("ff", MOD)

    def test_decode_p_hex_errors(self):
        with pytest.raises(ValueError):
            fp.decode_hex(format(P254, "064x"), MOD)
