"""Point arithmetic: generic laws, the budgeted Miller steps, and the twist
endomorphism, all checked against independent oracles."""

import pytest

from bnpair import curve, tower
from bnpair.costmodel import with_counting
from bnpair.curve import CurveError, G1Point, G2Point


class TestG1:
    def test_generator_on_curve(self, tiny, paper):
        for par in (tiny, paper):
            assert curve.g1_is_on_curve(curve.g1_generator(par), par)

    def test_scalar_mul_edges(self, paper):
        G = curve.g1_generator(paper)
        assert curve.g1_scalar_mul(G, 0, paper).infinity
        assert curve.g1_scalar_mul(G, 1, paper) == G
        assert curve.g1_scalar_mul(G, paper.r, paper).infinity

    def test_group_law_addition_homomorphism(self, paper, rng):
        G = curve.g1_generator(paper)
        for _ in range(10):
            a, b = rng.randrange(1, paper.r), rng.randrange(1, paper.r)
            lhs = curve.g1_scalar_mul(G, (a + b) % paper.r, paper)
            rhs = curve.g1_add(
                curve.g1_scalar_mul(G, a, paper), curve.g1_scalar_mul(G, b, paper), paper
            )
            assert lhs == rhs

    def test_negate(self, paper):
        G = curve.g1_generator(paper)
        assert curve.g1_add(G, curve.g1_negate(G, paper), paper).infinity

    def test_tiny_group_table(self, tiny):
        from oracles import enumerate_e_fp

        table = set(enumerate_e_fp(tiny))
        G = curve.g1_generator(tiny)
        seen = set()
        Q = G
        for _ in range(tiny.r - 1):
            seen.add(Q.to_ints(tiny))
            Q = curve.g1_add(Q, G, tiny)
        assert Q.infinity
        assert seen == table  # the generator sweeps the whole group

    def test_hex_io(self, paper):
        G = curve.g1_generator(paper)
        x, y = G.to_ints(paper)
        assert G1Point.from_ints(x, y, paper) == G


class TestG2:
    def test_generator_on_twist(self, tiny, paper):
        for par in (tiny, paper):
            assert curve.g2_is_on_curve(curve.g2_generator(par), par)

    def test_scalar_mul_order(self, tiny, paper):
        for par in (tiny, paper):
            G = curve.g2_generator(par)
            assert curve.g2_scalar_mul(G, par.r, par).infinity
            assert curve.g2_eq(curve.g2_scalar_mul(G, 1, par), G, par)

    def test_double_matches_add(self, paper, rng):
        G = curve.g2_generator(paper)
        Q = curve.g2_scalar_mul(G, rng.randrange(2, paper.r), paper)
        aff = curve.g2_to_affine(Q, paper)
        assert curve.g2_eq(curve.g2_double(Q, paper), curve.g2_add_mixed(Q, aff, paper), paper)

    def test_to_affine_infinity(self, paper):
        from bnpair.curve import G2Point

        assert curve.g2_to_affine(G2Point.zero(paper), paper) is None

    def test_tiny_twist_group_table(self, tiny):
        from oracles import enumerate_twist_fp2

        pts = enumerate_twist_fp2(tiny)
        # full twist group order is r * (2p - r)
        assert len(pts) + 1 == tiny.r * tiny.g2_cofactor


def _multiples(P, neg_P, zero, add, r):
    """(k, [k]P) for every k in [-r, 2r], by repeated addition."""
    out = []
    for step, sign, top in ((P, 1, 2 * r), (neg_P, -1, r)):
        acc = zero
        for n in range(top + 1):
            out.append((sign * n, acc))
            acc = add(acc, step)
    return out


def _twist_point(x, y, par):
    return G2Point.from_affine(tower.fp2_from_ints(*x, par), tower.fp2_from_ints(*y, par), par)


class TestScalarMulOracle:
    """Both scalar multiplications against a repeated-addition chain on the
    toy curve, for every k in [-r, 2r]."""

    def test_g1_matches_repeated_addition(self, tiny):
        G = curve.g1_generator(tiny)
        chain = _multiples(
            G, curve.g1_negate(G, tiny), G1Point.zero(),
            lambda A, B: curve.g1_add(A, B, tiny), tiny.r,
        )
        for k, want in chain:
            assert curve.g1_scalar_mul(G, k, tiny) == want

    def test_g2_matches_repeated_addition(self, tiny):
        from oracles import enumerate_twist_fp2

        # a point of G2 and a twist point outside it, whose order is not r
        outside = next(
            Q
            for Q in (_twist_point(x, y, tiny) for x, y in enumerate_twist_fp2(tiny))
            if not curve.g2_scalar_mul(Q, tiny.r, tiny).infinity
        )
        for Q in (curve.g2_generator(tiny), outside):
            chain = _multiples(
                curve.g2_to_affine(Q, tiny),
                curve.g2_to_affine(curve.g2_negate(Q, tiny), tiny),
                G2Point.zero(tiny),
                lambda A, B: curve.g2_add_mixed(A, B, tiny),
                tiny.r,
            )
            for k, want in chain:
                assert curve.g2_eq(curve.g2_scalar_mul(Q, k, tiny), want, tiny)

    def test_g2_scalar_mul_of_infinity(self, tiny):
        assert curve.g2_scalar_mul(G2Point.zero(tiny), 5, tiny).infinity


class TestMillerSteps:
    def test_doubling_step_matches_generic(self, tiny, paper, rng):
        for par in (tiny, paper):
            g1 = curve.g1_generator(par)
            G = curve.g2_generator(par)
            for _ in range(20):
                T = curve.g2_scalar_mul(G, rng.randrange(1, par.r), par)
                T2, _ = curve.doubling_step(T, g1, par)
                assert curve.g2_eq(T2, curve.g2_double(T, par), par)
                assert curve.g2_is_on_curve(T2, par)

    def test_addition_step_matches_generic(self, tiny, paper, rng):
        for par in (tiny, paper):
            g1 = curve.g1_generator(par)
            G = curve.g2_generator(par)
            for _ in range(20):
                a = rng.randrange(1, par.r)
                b = rng.randrange(1, par.r)
                if (a + b) % par.r == 0 or a == b:
                    continue
                T = curve.g2_scalar_mul(G, a, par)
                Qa = curve.g2_to_affine(curve.g2_scalar_mul(G, b, par), par)
                S, _ = curve.addition_step(T, Qa, g1, par)
                assert curve.g2_eq(S, curve.g2_add_mixed(T, Qa, par), par)

    def test_addition_step_inverse_pair(self, paper):
        g1 = curve.g1_generator(paper)
        T = curve.g2_scalar_mul(curve.g2_generator(paper), 9, paper)
        neg = curve.g2_to_affine(curve.g2_negate(T, paper), paper)
        S, _ = curve.addition_step(T, neg, g1, paper)
        assert S.infinity

    def test_addition_step_equal_points_rejected(self, paper):
        g1 = curve.g1_generator(paper)
        T = curve.g2_scalar_mul(curve.g2_generator(paper), 9, paper)
        aff = curve.g2_to_affine(T, paper)
        with pytest.raises(CurveError):
            curve.addition_step(T, aff, g1, paper)

    def test_steps_reject_infinity(self, paper):
        from bnpair.curve import G2Point

        g1 = curve.g1_generator(paper)
        G = curve.g2_generator(paper)
        with pytest.raises(CurveError):
            curve.doubling_step(G2Point.zero(paper), g1, paper)
        with pytest.raises(CurveError):
            curve.doubling_step(G, G1Point.zero(), paper)

    def test_doubling_step_counts(self, paper):
        g1 = curve.g1_generator(paper)
        T = curve.g2_scalar_mul(curve.g2_generator(paper), 3, paper)
        _, counts = with_counting(lambda: curve.doubling_step(T, g1, paper))
        assert (counts.m2, counts.s2, counts.direct_m, counts.m_xi) == (3, 8, 4, 0)
        assert abs(counts.a2 - 25) <= 3

    def test_addition_step_counts(self, paper):
        g1 = curve.g1_generator(paper)
        G = curve.g2_generator(paper)
        T = curve.g2_scalar_mul(G, 3, paper)
        Qa = curve.g2_to_affine(curve.g2_scalar_mul(G, 5, paper), paper)
        _, counts = with_counting(lambda: curve.addition_step(T, Qa, g1, paper))
        assert (counts.m2, counts.s2, counts.direct_m, counts.m_xi) == (7, 8, 4, 0)
        assert abs(counts.a2 - 25) <= 3


class TestPsi:
    def test_psi_is_p_power_on_g2(self, tiny, paper):
        for par in (tiny, paper):
            G = curve.g2_generator(par)
            aff = curve.g2_to_affine(G, par)
            psi = curve.g2_frobenius_psi(aff, par, 1)
            pG = curve.g2_to_affine(curve.g2_scalar_mul(G, par.p % par.r, par), par)
            assert psi == pG

    def test_psi_untwist_commutes_with_frobenius(self, tiny, rng):
        from oracles import untwist

        G = curve.g2_generator(tiny)
        for _ in range(20):
            Q = curve.g2_scalar_mul(G, rng.randrange(1, tiny.r), tiny)
            aff = curve.g2_to_affine(Q, tiny)
            psi = curve.g2_frobenius_psi(aff, tiny, 1)
            ux, uy = untwist(aff, tiny)
            assert untwist(psi, tiny) == (
                tower.fp12_pow(ux, tiny.p, tiny),
                tower.fp12_pow(uy, tiny.p, tiny),
            )

    def test_psi_squared_composition(self, paper):
        aff = curve.g2_to_affine(curve.g2_generator(paper), paper)
        once = curve.g2_frobenius_psi(aff, paper, 1)
        assert curve.g2_frobenius_psi(once, paper, 1) == curve.g2_frobenius_psi(
            aff, paper, 2
        )

    def test_psi_additivity(self, tiny, rng):
        G = curve.g2_generator(tiny)
        a, b = rng.randrange(1, tiny.r), rng.randrange(1, tiny.r)
        A = curve.g2_scalar_mul(G, a, tiny)
        B = curve.g2_scalar_mul(G, b, tiny)
        S = curve.g2_scalar_mul(G, (a + b) % tiny.r, tiny)
        if S.infinity:
            return
        psum = curve.g2_frobenius_psi(curve.g2_to_affine(S, tiny), tiny, 1)
        # psi(A + B) computed pointwise
        pa = curve.g2_frobenius_psi(curve.g2_to_affine(A, tiny), tiny, 1)
        pb = curve.g2_frobenius_psi(curve.g2_to_affine(B, tiny), tiny, 1)
        from bnpair.curve import G2Point

        added = curve.g2_add_mixed(G2Point.from_affine(pa[0], pa[1], tiny), pb, tiny)
        assert curve.g2_to_affine(added, tiny) == psum
