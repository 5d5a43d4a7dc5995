"""Miller loop and final exponentiation, against oracles and by properties."""

import pytest

from bnpair import curve, pairing, tower
from bnpair.costmodel import with_counting
from bnpair.curve import G2Point
from bnpair.pairing import PairingError


def rand_fp12(rng, par):
    return tuple(
        tuple(
            tower.fp2_from_ints(rng.randrange(par.p), rng.randrange(par.p), par)
            for _ in range(3)
        )
        for _ in range(2)
    )


class TestMillerLoop:
    def test_step_counts_follow_naf(self, tiny, paper):
        for par in (tiny, paper):
            g1 = curve.g1_generator(par)
            g2 = curve.g2_generator(par)
            _, counts = with_counting(lambda: pairing.miller_loop(g1, g2, par))
            digits = par.s_naf
            expected_dbl = len(digits) - 1
            expected_add = sum(1 for d in digits[:-1] if d) + 2
            assert counts.doubling_step == expected_dbl
            assert counts.addition_step == expected_add

    def test_rejects_infinity(self, paper):
        g1 = curve.g1_generator(paper)
        with pytest.raises(PairingError):
            pairing.miller_loop(g1, G2Point.zero(paper), paper)

    def test_matches_divisor_oracle(self, tiny, rng):
        from oracles import optimal_ate_naive

        g1 = curve.g1_generator(tiny)
        g2 = curve.g2_generator(tiny)
        for _ in range(5):
            a = rng.randrange(1, tiny.r)
            b = rng.randrange(1, tiny.r)
            P = curve.g1_scalar_mul(g1, a, tiny)
            Q = curve.g2_scalar_mul(g2, b, tiny)
            got = pairing.optimal_ate(P, Q, tiny).value
            want = optimal_ate_naive(P, curve.g2_to_affine(Q, tiny), tiny)
            assert got == want


class TestFinalExponentiation:
    def test_identity(self, paper):
        one = tower.fp12_one(paper)
        assert pairing.final_exponentiation(one, paper) == one

    def test_zero_rejected(self, paper):
        with pytest.raises(ZeroDivisionError):
            pairing.final_exponentiation(tower.fp12_zero(paper), paper)

    def test_result_in_mu_r(self, tiny, rng):
        one = tower.fp12_one(tiny)
        for _ in range(50):
            f = rand_fp12(rng, tiny)
            out = pairing.final_exponentiation(f, tiny)
            assert tower.fp12_pow(out, tiny.r, tiny) == one

    def test_easy_part_membership(self, tiny, paper, rng):
        # easy-part outputs are cyclotomic: compressed squaring is exact there
        for par in (tiny, paper):
            for _ in range(5):
                m = pairing.easy_part(rand_fp12(rng, par), par)
                assert tower.cyclotomic_sqr(m, par) == tower.fp12_sqr(m, par)

    def test_easy_part_oracle(self, tiny, rng):
        e = (tiny.p**6 - 1) * (tiny.p**2 + 1)
        for _ in range(5):
            f = rand_fp12(rng, tiny)
            assert pairing.easy_part(f, tiny) == tower.fp12_pow(f, e, tiny)

    def test_hard_part_uses_three_t_powers(self, paper, rng):
        m = pairing.easy_part(rand_fp12(rng, paper), paper)
        _, counts = with_counting(lambda: pairing.hard_part(m, paper))
        # exp_by_t runs on the cyclotomic ladder: 62 squarings each for the
        # production parameter, three calls total
        assert counts.cyclotomic_sqr >= 3 * 62


class TestOptimalAte:
    def test_determinism(self, tiny):
        g1 = curve.g1_generator(tiny)
        g2 = curve.g2_generator(tiny)
        assert (
            pairing.optimal_ate(g1, g2, tiny).value
            == pairing.optimal_ate(g1, g2, tiny).value
        )

    def test_rejects_off_curve_g1(self, paper):
        from bnpair.curve import G1Point

        bad = G1Point(paper.modulus.r_mod_p, paper.modulus.r_mod_p)
        with pytest.raises(PairingError):
            pairing.optimal_ate(bad, curve.g2_generator(paper), paper)

    def test_rejects_wrong_subgroup_g2(self, tiny):
        # a twist point of order dividing the cofactor, outside G2
        from oracles import enumerate_twist_fp2

        g1 = curve.g1_generator(tiny)
        for x, y in enumerate_twist_fp2(tiny):
            Q = G2Point.from_affine(
                tower.fp2_from_ints(*x, tiny), tower.fp2_from_ints(*y, tiny), tiny
            )
            if not curve.g2_scalar_mul(Q, tiny.r, tiny).infinity:
                with pytest.raises(PairingError):
                    pairing.optimal_ate(g1, Q, tiny)
                return
        pytest.fail("no out-of-subgroup twist point found")

    def test_serialization(self, tiny):
        res = pairing.optimal_ate(
            curve.g1_generator(tiny), curve.g2_generator(tiny), tiny
        )
        items = res.to_hex(tiny)
        assert len(items) == 12
        assert tower.fp12_from_hex(items, tiny) == res.value


def _accepts_g2(Q, par) -> bool:
    try:
        pairing.validate_g2(Q, par)
    except PairingError:
        return False
    return True


class TestG2Membership:
    """validate_g2's psi test against the [r]Q oracle it replaces."""

    def test_toy_exhaustive_agrees_with_r_torsion(self, tiny):
        from oracles import enumerate_twist_fp2

        accepted = 0
        for x, y in enumerate_twist_fp2(tiny):
            Q = G2Point.from_affine(
                tower.fp2_from_ints(*x, tiny), tower.fp2_from_ints(*y, tiny), tiny
            )
            in_g2 = curve.g2_scalar_mul(Q, tiny.r, tiny).infinity
            assert _accepts_g2(Q, tiny) == in_g2
            accepted += in_g2
        assert accepted == tiny.r - 1  # every finite point of G2, and no other

    def test_paper_rejects_uncleared_cofactor(self, paper):
        from bnpair.params import _twist_points

        G = curve.g2_generator(paper)
        G_aff = curve.g2_to_affine(G, paper)
        for x, y in _twist_points(paper.b_twist, paper, 2):
            raw = G2Point.from_affine(x, y, paper)
            assert curve.g2_is_on_curve(raw, paper)
            assert not curve.g2_scalar_mul(raw, paper.r, paper).infinity
            shifted = curve.g2_add_mixed(raw, G_aff, paper)
            assert not curve.g2_scalar_mul(shifted, paper.r, paper).infinity
            for Q in (raw, shifted):
                with pytest.raises(PairingError):
                    pairing.validate_g2(Q, paper)
            # clearing the cofactor makes the same point valid
            cleared = curve.g2_scalar_mul(raw, paper.g2_cofactor, paper)
            assert curve.g2_scalar_mul(cleared, paper.r, paper).infinity
            pairing.validate_g2(cleared, paper)

