"""Point arithmetic for G1 (affine over F_p) and G2 (Jacobian over F_{p^2}
on the sextic twist), including the combined doubling/tangent-line and
addition/line steps used by the Miller loop.

The line steps return a :class:`SparseLine` — the three nonzero F_{p^2}
coefficients of the evaluated line function as an F_{p^12} element.  With
the D-type untwist (x, y) -> (x W^2, y W^3) the tangent/chord through the
untwisted points, evaluated at P = (x_P, y_P) in E(F_p) and cleared of
denominators, is

    l = (4 Y Z^3) y_P  +  (-6 X^2 Z^2) x_P * W  +  (6 X^3 - 4 Y^2) * W^3

so the coefficients sit at positions 1, omega and omega*nu of the tower
basis.  Operation budgets (checked by the test suite):

* doubling_step: 3 m2 + 8 s2 + ~25 a2 + 4 m
* addition_step: 7 m2 + 8 s2 + ~25 a2 + 4 m
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fp, tower
from .costmodel import tick
from .tower import Fp2


class CurveError(ValueError):
    """Contract violation in point arithmetic (degenerate input)."""


# ---------------------------------------------------------------------------
# G1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class G1Point:
    """Affine point on E(F_p): y^2 = x^3 + b.  Coordinates are Montgomery
    residues; the point at infinity carries the ``infinity`` flag."""

    x: int = 0
    y: int = 0
    infinity: bool = False

    @staticmethod
    def zero() -> "G1Point":
        return G1Point(0, 0, True)

    @staticmethod
    def from_ints(x: int, y: int, par) -> "G1Point":
        m = par.modulus
        return G1Point(fp.to_mont(x % m.p, m), fp.to_mont(y % m.p, m))

    def to_ints(self, par) -> tuple[int, int]:
        m = par.modulus
        return (fp.from_mont(self.x, m), fp.from_mont(self.y, m))


def g1_generator(par) -> G1Point:
    return G1Point.from_ints(par.g1_gen[0], par.g1_gen[1], par)


def g1_is_on_curve(P: G1Point, par) -> bool:
    if P.infinity:
        return True
    m = par.modulus
    lhs = fp.mont_mul(P.y, P.y, m)
    rhs = fp.add_mod(
        fp.mont_mul(fp.mont_mul(P.x, P.x, m), P.x, m), fp.to_mont(par.b, m), m
    )
    return lhs == rhs


def g1_negate(P: G1Point, par) -> G1Point:
    if P.infinity:
        return P
    return G1Point(P.x, fp.neg_mod(P.y, par.modulus))


def g1_add(P: G1Point, Q: G1Point, par) -> G1Point:
    m = par.modulus
    if P.infinity:
        return Q
    if Q.infinity:
        return P
    if P.x == Q.x:
        if fp.add_mod(P.y, Q.y, m) == 0:
            return G1Point.zero()
        # tangent slope 3x^2 / 2y
        num = fp.mul_small(fp.mont_mul(P.x, P.x, m), 3, m)
        lam = fp.mont_mul(num, fp.inv_mod(fp.add_mod(P.y, P.y, m), m), m)
    else:
        lam = fp.mont_mul(
            fp.sub_mod(Q.y, P.y, m), fp.inv_mod(fp.sub_mod(Q.x, P.x, m), m), m
        )
    x3 = fp.sub_mod(fp.sub_mod(fp.mont_mul(lam, lam, m), P.x, m), Q.x, m)
    y3 = fp.sub_mod(fp.mont_mul(lam, fp.sub_mod(P.x, x3, m), m), P.y, m)
    return G1Point(x3, y3)


def g1_scalar_mul(P: G1Point, k: int, par) -> G1Point:
    if k < 0:
        return g1_scalar_mul(g1_negate(P, par), -k, par)
    result = G1Point.zero()
    addend = P
    while k:
        if k & 1:
            result = g1_add(result, addend, par)
        addend = g1_add(addend, addend, par)
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# G2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class G2Point:
    """Jacobian point on the twist E'(F_{p^2}): y^2 = x^3 + b/xi.
    Affine x = X/Z^2, y = Y/Z^3; infinity is Z = 0."""

    X: Fp2
    Y: Fp2
    Z: Fp2

    @property
    def infinity(self) -> bool:
        return tower.fp2_is_zero(self.Z)

    @staticmethod
    def zero(par) -> "G2Point":
        one = tower.fp2_one(par)
        return G2Point(one, one, tower.fp2_zero(par))

    @staticmethod
    def from_affine(x: Fp2, y: Fp2, par) -> "G2Point":
        return G2Point(x, y, tower.fp2_one(par))


def g2_generator(par) -> G2Point:
    return G2Point.from_affine(par.g2_gen[0], par.g2_gen[1], par)


def g2_to_affine(Q: G2Point, par) -> tuple[Fp2, Fp2] | None:
    """Affine coordinates, or None for the point at infinity."""
    if Q.infinity:
        return None
    zinv = tower.fp2_inv(Q.Z, par)
    zinv2 = tower.fp2_sqr(zinv, par)
    x = tower.fp2_mul(Q.X, zinv2, par)
    y = tower.fp2_mul(Q.Y, tower.fp2_mul(zinv2, zinv, par), par)
    return (x, y)


def g2_is_on_curve(Q: G2Point, par) -> bool:
    if Q.infinity:
        return True
    aff = g2_to_affine(Q, par)
    x, y = aff
    lhs = tower.fp2_sqr(y, par)
    rhs = tower.fp2_add(
        tower.fp2_mul(tower.fp2_sqr(x, par), x, par), par.b_twist, par
    )
    return lhs == rhs


def g2_negate(Q: G2Point, par) -> G2Point:
    return G2Point(Q.X, tower.fp2_neg(Q.Y, par), Q.Z)


def g2_eq(P: G2Point, Q: G2Point, par) -> bool:
    if P.infinity or Q.infinity:
        return P.infinity and Q.infinity
    return g2_to_affine(P, par) == g2_to_affine(Q, par)


def g2_double(Q: G2Point, par) -> G2Point:
    """Generic Jacobian doubling (oracle-grade, not the budgeted step)."""
    if Q.infinity:
        return Q
    X, Y, Z = Q.X, Q.Y, Q.Z
    A = tower.fp2_sqr(X, par)
    B = tower.fp2_sqr(Y, par)
    C = tower.fp2_sqr(B, par)
    D = tower.fp2_double(
        tower.fp2_sub(
            tower.fp2_sub(tower.fp2_sqr(tower.fp2_add(X, B, par), par), A, par),
            C,
            par,
        ),
        par,
    )
    E = tower.fp2_add(tower.fp2_double(A, par), A, par)
    X3 = tower.fp2_sub(tower.fp2_sqr(E, par), tower.fp2_double(D, par), par)
    eightC = tower.fp2_double(tower.fp2_double(tower.fp2_double(C, par), par), par)
    Y3 = tower.fp2_sub(tower.fp2_mul(E, tower.fp2_sub(D, X3, par), par), eightC, par)
    Z3 = tower.fp2_double(tower.fp2_mul(Y, Z, par), par)
    return G2Point(X3, Y3, Z3)


def g2_add_mixed(Q: G2Point, R_affine: tuple[Fp2, Fp2], par) -> G2Point:
    """Generic Jacobian + affine addition (oracle-grade)."""
    if Q.infinity:
        return G2Point.from_affine(R_affine[0], R_affine[1], par)
    x2, y2 = R_affine
    X, Y, Z = Q.X, Q.Y, Q.Z
    Z1Z1 = tower.fp2_sqr(Z, par)
    U2 = tower.fp2_mul(x2, Z1Z1, par)
    S2 = tower.fp2_mul(y2, tower.fp2_mul(Z, Z1Z1, par), par)
    if U2 == X:
        if S2 == Y:
            return g2_double(Q, par)
        return G2Point.zero(par)
    H = tower.fp2_sub(U2, X, par)
    HH = tower.fp2_sqr(H, par)
    I = tower.fp2_double(tower.fp2_double(HH, par), par)
    J = tower.fp2_mul(H, I, par)
    rr = tower.fp2_double(tower.fp2_sub(S2, Y, par), par)
    V = tower.fp2_mul(X, I, par)
    X3 = tower.fp2_sub(
        tower.fp2_sub(tower.fp2_sqr(rr, par), J, par), tower.fp2_double(V, par), par
    )
    Y3 = tower.fp2_sub(
        tower.fp2_mul(rr, tower.fp2_sub(V, X3, par), par),
        tower.fp2_double(tower.fp2_mul(Y, J, par), par),
        par,
    )
    Z3 = tower.fp2_sub(
        tower.fp2_sub(tower.fp2_sqr(tower.fp2_add(Z, H, par), par), Z1Z1, par),
        HH,
        par,
    )
    return G2Point(X3, Y3, Z3)


def g2_scalar_mul(Q: G2Point, k: int, par) -> G2Point:
    """[k]Q by left-to-right double-and-add in Jacobian coordinates.

    Q is made affine once, so every addition is mixed and the whole
    multiplication costs one F_{p^2} inversion.
    """
    if k < 0:
        return g2_scalar_mul(g2_negate(Q, par), -k, par)
    result = G2Point.zero(par)
    aff = g2_to_affine(Q, par)
    if aff is None:
        return result
    for bit in bin(k)[2:]:
        result = g2_double(result, par)
        if bit == "1":
            result = g2_add_mixed(result, aff, par)
    return result


# ---------------------------------------------------------------------------
# Sparse lines and the combined Miller-loop steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseLine:
    """Nonzero F_{p^2} coefficients of an evaluated line: ``a`` at 1,
    ``b`` at omega, ``c`` at omega*nu of the F_{p^12} basis."""

    a: Fp2
    b: Fp2
    c: Fp2


def doubling_step(T: G2Point, P: G1Point, par) -> tuple[G2Point, SparseLine]:
    """2T and the tangent line at T evaluated at P.

    Budget: 3 m2 + 8 s2 + ~25 a2 + 4 m.  Coefficients:
    (4 Y Z^3 y_P, -6 X^2 Z^2 x_P, 6 X^3 - 4 Y^2).
    """
    if T.infinity or P.infinity:
        raise CurveError("doubling_step requires non-infinity inputs")
    tick("doubling_step")
    m = par.modulus
    X, Y, Z = T.X, T.Y, T.Z

    t0 = tower.fp2_sqr(X, par)            # X^2
    t1 = tower.fp2_sqr(Y, par)            # Y^2
    t2 = tower.fp2_sqr(t1, par)           # Y^4
    t3 = tower.fp2_sqr(Z, par)            # Z^2
    # 2 X Y^2 via the square of a sum
    u = tower.fp2_sub(
        tower.fp2_sub(tower.fp2_sqr(tower.fp2_add(X, t1, par), par), t0, par),
        t2,
        par,
    )
    A = tower.fp2_double(u, par)          # 4 X Y^2
    w = tower.fp2_add(tower.fp2_double(t0, par), t0, par)  # 3 X^2
    w2 = tower.fp2_sqr(w, par)            # 9 X^4
    X_R = tower.fp2_sub(w2, tower.fp2_double(A, par), par)
    eight_t2 = tower.fp2_double(tower.fp2_double(tower.fp2_double(t2, par), par), par)
    Y_R = tower.fp2_sub(tower.fp2_mul(w, tower.fp2_sub(A, X_R, par), par), eight_t2, par)
    Z_R = tower.fp2_sub(
        tower.fp2_sub(tower.fp2_sqr(tower.fp2_add(Y, Z, par), par), t1, par), t3, par
    )

    # 6 X^3 = (X + w)^2 - t0 - w2 with w = 3 X^2 (the cross term 2Xw)
    six_x3 = tower.fp2_sub(
        tower.fp2_sub(tower.fp2_sqr(tower.fp2_add(X, w, par), par), t0, par),
        w2,
        par,
    )

    la = tower.fp2_double(tower.fp2_mul(Z_R, t3, par), par)        # 4 Y Z^3
    lb = tower.fp2_neg(
        tower.fp2_double(tower.fp2_mul(w, t3, par), par), par
    )                                                              # -6 X^2 Z^2
    lc = tower.fp2_sub(six_x3, tower.fp2_double(tower.fp2_double(t1, par), par), par)

    # scale by the G1 coordinates: four F_p multiplications
    a = (fp.mont_mul(la[0], P.y, m), fp.mont_mul(la[1], P.y, m))
    b = (fp.mont_mul(lb[0], P.x, m), fp.mont_mul(lb[1], P.x, m))
    return G2Point(X_R, Y_R, Z_R), SparseLine(a, b, lc)


def addition_step(
    T: G2Point, Q_affine: tuple[Fp2, Fp2], P: G1Point, par
) -> tuple[G2Point, SparseLine]:
    """T + Q (mixed: Q affine) and the chord line through them at P.

    Budget: 7 m2 + 8 s2 + ~25 a2 + 4 m.  Returns the infinity
    representation when Q = -T; raises when Q = T (use doubling_step).
    """
    if T.infinity or P.infinity:
        raise CurveError("addition_step requires non-infinity inputs")
    tick("addition_step")
    m = par.modulus
    x_Q, y_Q = Q_affine
    X, Y, Z = T.X, T.Y, T.Z

    t1 = tower.fp2_sqr(Z, par)                     # Z^2
    t2 = tower.fp2_mul(x_Q, t1, par)               # x_Q Z^2
    d = tower.fp2_mul(Z, y_Q, par)                 # y_Q Z
    t4 = tower.fp2_mul(d, t1, par)                 # y_Q Z^3
    H = tower.fp2_sub(t2, X, par)
    theta = tower.fp2_sub(t4, Y, par)
    if tower.fp2_is_zero(H):
        if tower.fp2_is_zero(theta):
            raise CurveError("addition_step with Q = T; use doubling_step")
        return G2Point.zero(par), SparseLine(
            tower.fp2_one(par), tower.fp2_zero(par), tower.fp2_zero(par)
        )

    I = tower.fp2_sqr(H, par)
    theta2 = tower.fp2_double(theta, par)
    J = tower.fp2_mul(H, I, par)
    V = tower.fp2_mul(X, I, par)
    Z_R = tower.fp2_sub(
        tower.fp2_sub(tower.fp2_sqr(tower.fp2_add(Z, H, par), par), t1, par), I, par
    )
    th2_sq = tower.fp2_sqr(theta2, par)
    twoV = tower.fp2_double(V, par)
    # 4J + 8V = 4 (J + 2V)
    U = tower.fp2_double(tower.fp2_double(tower.fp2_add(J, twoV, par), par), par)
    X_R = tower.fp2_sub(th2_sq, U, par)
    fourV = tower.fp2_double(twoV, par)
    YJ = tower.fp2_mul(Y, J, par)
    Y_R = tower.fp2_sub(
        tower.fp2_mul(theta2, tower.fp2_sub(fourV, X_R, par), par),
        tower.fp2_double(tower.fp2_double(tower.fp2_double(YJ, par), par), par),
        par,
    )

    # line constant 2*theta2*x_Q - 4*d*H via squares of sums
    xq_sq = tower.fp2_sqr(x_Q, par)
    p1 = tower.fp2_sub(
        tower.fp2_sub(tower.fp2_sqr(tower.fp2_add(theta2, x_Q, par), par), th2_sq, par),
        xq_sq,
        par,
    )                                              # 2 theta2 x_Q
    d_sq = tower.fp2_sqr(d, par)
    p2 = tower.fp2_sub(
        tower.fp2_sub(tower.fp2_sqr(tower.fp2_add(d, H, par), par), d_sq, par), I, par
    )                                              # 2 d H
    lc = tower.fp2_sub(p1, tower.fp2_double(p2, par), par)

    la = tower.fp2_double(Z_R, par)                # 4 Z H
    lb = tower.fp2_neg(tower.fp2_double(theta2, par), par)  # -4 theta

    a = (fp.mont_mul(la[0], P.y, m), fp.mont_mul(la[1], P.y, m))
    b = (fp.mont_mul(lb[0], P.x, m), fp.mont_mul(lb[1], P.x, m))
    return G2Point(X_R, Y_R, Z_R), SparseLine(a, b, lc)


# ---------------------------------------------------------------------------
# Twist endomorphism
# ---------------------------------------------------------------------------


def g2_frobenius_psi(Q_affine: tuple[Fp2, Fp2], par, power: int = 1) -> tuple[Fp2, Fp2]:
    """The twist representative of the p^power Frobenius (power 1 or 2):
    untwist(psi(Q)) = pi_p^power(untwist(Q))."""
    if power not in (1, 2):
        raise ValueError("g2_frobenius_psi supports powers 1 and 2")
    x, y = Q_affine
    gammas = par.frobenius_constants[power]
    if power == 1:
        x, y = tower.fp2_conj(x, par), tower.fp2_conj(y, par)
    # untwist factors W^2 and W^3 pick up xi^(2(p^k-1)/6) and xi^(3(p^k-1)/6)
    return (
        tower.fp2_mul(x, gammas[2], par),
        tower.fp2_mul(y, gammas[3], par),
    )
