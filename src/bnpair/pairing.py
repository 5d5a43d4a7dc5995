"""The optimal Ate pairing: NAF Miller loop, Frobenius correction steps,
and the two-stage final exponentiation.

``optimal_ate(P, Q, par)`` = ``final_exponentiation(miller_loop(P, Q, par))``
with subgroup validation at this public boundary only.  The Miller loop
runs over the signed digits of s = 6t + 2 and finishes with the two
endomorphism correction additions T + psi(Q) and T - psi^2(Q).

The hard part of the final exponentiation is a Frobenius/exp-by-t chain
whose exponent provably equals (p^4 - p^2 + 1)/r; the test suite checks it
against a direct big-exponent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import curve, tower
from .costmodel import tick
from .curve import CurveError, G1Point, G2Point
from .tower import Fp12


class PairingError(ValueError):
    """Invalid pairing input (off-curve or wrong-order point)."""


@dataclass(frozen=True)
class PairingResult:
    """An element of mu_r, the order-r subgroup of F_{p^12}^*."""

    value: Fp12

    def to_hex(self, par) -> list[str]:
        return tower.fp12_to_hex(self.value, par)


def validate_g1(P: G1Point, par) -> None:
    if P.infinity:
        raise PairingError("G1 input is the point at infinity")
    if not curve.g1_is_on_curve(P, par):
        raise PairingError("G1 input is not on the curve")


def validate_g2(Q: G2Point, par) -> None:
    """Reject Q unless it is a finite twist point of order r.

    Membership uses the twist endomorphism psi instead of [r]Q (Scott,
    ePrint 2021/1130; El Housni, Guillevic and Piellard, ePrint 2022/352):
    Q is in G2 iff psi(Q) = [6t^2]Q, a scalar of half the bits of r.  On a
    BN curve this is a complete test for every point of the twist:

    * psi is the p-power Frobenius seen through the twist, so it satisfies
      psi^2 - [t_r] psi + [p] = 0.  If psi(Q) = [l]Q with l = 6t^2 and
      t_r = l + 1, then [l^2 - (l + 1) l + p]Q = [p - 6t^2]Q = [r]Q = 0.
      Because r^2 does not divide the twist order r (2p - r), the points
      of order r are exactly G2.
    * Conversely psi acts on G2 as [p], and p = 6t^2 + r, so every point
      of G2 passes.
    """
    if Q.infinity:
        raise PairingError("G2 input is the point at infinity")
    if not curve.g2_is_on_curve(Q, par):
        raise PairingError("G2 input is not on the twist")
    psi = curve.g2_frobenius_psi(curve.g2_to_affine(Q, par), par, 1)
    if psi != curve.g2_to_affine(curve.g2_scalar_mul(Q, 6 * par.t**2, par), par):
        raise PairingError("G2 input is not in the order-r subgroup")


def miller_loop(P: G1Point, Q: G2Point, par) -> Fp12:
    """Accumulate f over the signed-digit loop on s = 6t + 2, then apply
    the two Frobenius correction steps with Q1 = psi(Q), Q2 = psi^2(Q)."""
    if P.infinity or Q.infinity:
        raise PairingError("miller_loop requires non-infinity inputs")
    tick("miller_loop")

    q_affine = curve.g2_to_affine(Q, par)
    q_neg = (q_affine[0], tower.fp2_neg(q_affine[1], par))

    digits = par.s_naf  # LSB first, top digit is 1
    f = tower.fp12_one(par)
    T = G2Point.from_affine(q_affine[0], q_affine[1], par)
    for d in reversed(digits[:-1]):
        f = tower.fp12_sqr(f, par)
        T, line = curve.doubling_step(T, P, par)
        f = tower.sparse_mul(f, line, par)
        if d:
            T, line = curve.addition_step(T, q_affine if d > 0 else q_neg, P, par)
            if T.infinity:
                raise CurveError("degenerate addition inside the Miller loop")
            f = tower.sparse_mul(f, line, par)

    q1 = curve.g2_frobenius_psi(q_affine, par, 1)
    q2 = curve.g2_frobenius_psi(q_affine, par, 2)
    q2_neg = (q2[0], tower.fp2_neg(q2[1], par))
    T, line = curve.addition_step(T, q1, P, par)
    f = tower.sparse_mul(f, line, par)
    T, line = curve.addition_step(T, q2_neg, P, par)
    f = tower.sparse_mul(f, line, par)
    return f


def easy_part(f: Fp12, par) -> Fp12:
    """f^((p^6 - 1)(p^2 + 1)); lands in the cyclotomic subgroup."""
    if tower.fp12_is_zero(f):
        raise ZeroDivisionError("easy_part of zero")
    tick("easy_part")
    m = tower.fp12_mul(tower.fp12_conj(f, par), tower.fp12_inv(f, par), par)
    return tower.fp12_mul(tower.frobenius_p2(m, par), m, par)


def hard_part(m: Fp12, par) -> Fp12:
    """m^((p^4 - p^2 + 1)/r) on the cyclotomic subgroup.

    Built from the intermediates m^t, m^{t^2}, m^{t^3} (three exp_by_t
    calls) and their Frobenius images; inverses are conjugations and all
    squarings are cyclotomic.
    """
    tick("hard_part")
    frb = tower.frobenius
    mul = tower.fp12_mul
    sqr = tower.cyclotomic_sqr
    conj = tower.fp12_conj

    ft1 = tower.exp_by_t(m, par)
    ft2 = tower.exp_by_t(ft1, par)
    ft3 = tower.exp_by_t(ft2, par)

    y0 = mul(mul(frb(m, 1, par), frb(m, 2, par), par), frb(m, 3, par), par)
    y1 = conj(m, par)
    y2 = frb(ft2, 2, par)
    y3 = conj(frb(ft1, 1, par), par)
    y4 = conj(mul(ft1, frb(ft2, 1, par), par), par)
    y5 = conj(ft2, par)
    y6 = conj(mul(ft3, frb(ft3, 1, par), par), par)

    t0 = mul(mul(sqr(y6, par), y4, par), y5, par)
    t1 = mul(mul(y3, y5, par), t0, par)
    t0 = mul(t0, y2, par)
    t1 = mul(sqr(t1, par), t0, par)
    t1 = sqr(t1, par)
    t0 = mul(t1, y1, par)
    t1 = mul(t1, y0, par)
    t0 = mul(sqr(t0, par), t1, par)
    return t0


def final_exponentiation(f: Fp12, par) -> Fp12:
    """f^((p^12 - 1)/r) via the easy/hard split."""
    tick("final_exponentiation")
    return hard_part(easy_part(f, par), par)


def optimal_ate(P: G1Point, Q: G2Point, par) -> PairingResult:
    """The optimal Ate pairing e: G2 x G1 -> mu_r with input validation."""
    validate_g1(P, par)
    validate_g2(Q, par)
    tick("optimal_ate")
    return PairingResult(final_exponentiation(miller_loop(P, Q, par), par))
