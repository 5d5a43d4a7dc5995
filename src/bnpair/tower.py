"""Extension-field arithmetic for F_{p^2}, F_{p^6} and F_{p^12}.

Tower shape::

    F_{p^2}  = F_p[mu]    / (mu^2 - beta)
    F_{p^6}  = F_{p^2}[nu] / (nu^3 - xi)
    F_{p^12} = F_{p^6}[omega] / (omega^2 - nu)

Elements are nested tuples of Montgomery residues: an F_{p^2} value is
``(c0, c1)``, an F_{p^6} value is a triple of F_{p^2} values, an F_{p^12}
value is a pair of F_{p^6} values.  All operations are pure.

Every function takes a field-parameter object ``fld`` exposing at least
``modulus`` (a :class:`bnpair.fp.PrimeModulus`), ``beta`` (small signed
integer), and ``xi`` (pair of small integers, the coefficients of xi over
the F_{p^2} basis).  Frobenius maps additionally require
``fld.frobenius_constants``.

Operation schedules are arranged to meet fixed operation budgets per call
(checked exactly by the test suite for multiplications/squarings):

* F_{p^2} multiply: 3 m + 1 m_beta + 5 a (Karatsuba)
* F_{p^2} square: 2 m + 2 m_beta + 5 a (complex method)
* F_{p^2} inverse: 4 m + 1 m_beta + 2 a + 1 i
* F_{p^6} multiply: 6 m2 + 2 m_xi + 15 a2 (interleaved Karatsuba)
* F_{p^6} square: 2 m2 + 3 s2 + 2 m_xi + 10 a2
* F_{p^12} multiply: 18 m2 + 7 m_xi + 60 a2
* F_{p^12} square: 12 m2 + 6 m_xi + 45 a2 (complex method)
* cyclotomic square: 6 m2 + 6 m_xi + 39 a2 (compressed 3x quartic squaring)
* sparse multiply: 13 m2 + 3 m_xi + ~28 a2
"""

from __future__ import annotations

from . import fp
from .costmodel import fp2_scope, tick

Fp2 = tuple[int, int]
Fp6 = tuple[Fp2, Fp2, Fp2]
Fp12 = tuple[Fp6, Fp6]

# ---------------------------------------------------------------------------
# F_{p^2}
# ---------------------------------------------------------------------------


def fp2_zero(fld) -> Fp2:
    return (0, 0)


def fp2_one(fld) -> Fp2:
    return (fld.modulus.r_mod_p, 0)


def fp2_from_ints(c0: int, c1: int, fld) -> Fp2:
    m = fld.modulus
    return (fp.to_mont(c0 % m.p, m), fp.to_mont(c1 % m.p, m))


def fp2_to_ints(a: Fp2, fld) -> tuple[int, int]:
    m = fld.modulus
    return (fp.from_mont(a[0], m), fp.from_mont(a[1], m))


def fp2_is_zero(a: Fp2) -> bool:
    return a[0] == 0 and a[1] == 0


def fp2_add(a: Fp2, b: Fp2, fld) -> Fp2:
    tick("a2")
    m = fld.modulus
    with fp2_scope:
        return (fp.add_mod(a[0], b[0], m), fp.add_mod(a[1], b[1], m))


def fp2_sub(a: Fp2, b: Fp2, fld) -> Fp2:
    tick("a2")
    m = fld.modulus
    with fp2_scope:
        return (fp.sub_mod(a[0], b[0], m), fp.sub_mod(a[1], b[1], m))


def fp2_neg(a: Fp2, fld) -> Fp2:
    tick("a2")
    m = fld.modulus
    with fp2_scope:
        return (fp.neg_mod(a[0], m), fp.neg_mod(a[1], m))


def fp2_double(a: Fp2, fld) -> Fp2:
    return fp2_add(a, a, fld)


def fp2_conj(a: Fp2, fld) -> Fp2:
    m = fld.modulus
    return (a[0], m.p - a[1] if a[1] else 0)


def fp2_mul(a: Fp2, b: Fp2, fld) -> Fp2:
    """Karatsuba: 3 multiplications, 1 beta-constant multiplication, 5 add/sub."""
    tick("m2")
    m = fld.modulus
    with fp2_scope:
        t0 = fp.mont_mul(a[0], b[0], m)
        t1 = fp.mont_mul(a[1], b[1], m)
        sa = fp.add_mod(a[0], a[1], m)
        sb = fp.add_mod(b[0], b[1], m)
        u = fp.mont_mul(sa, sb, m)
        c1 = fp.sub_mod(fp.sub_mod(u, t0, m), t1, m)
        c0 = fp.add_mod(t0, fp.mul_small(t1, fld.beta, m), m)
    return (c0, c1)


def fp2_sqr(a: Fp2, fld) -> Fp2:
    """Complex method: (a0 + a1)(a0 + beta*a1) recombination, 2m + 2m_beta + 5a."""
    tick("s2")
    m = fld.modulus
    with fp2_scope:
        v0 = fp.add_mod(a[0], a[1], m)
        v1 = fp.add_mod(a[0], fp.mul_small(a[1], fld.beta, m), m)
        t = fp.mont_mul(v0, v1, m)
        w = fp.mont_mul(a[0], a[1], m)
        c0 = fp.sub_mod(fp.sub_mod(t, w, m), fp.mul_small(w, fld.beta, m), m)
        c1 = fp.add_mod(w, w, m)
    return (c0, c1)


def fp2_mul_beta(a: Fp2, fld) -> Fp2:
    """Component-wise multiplication by the constant beta."""
    m = fld.modulus
    with fp2_scope:
        return (fp.mul_small(a[0], fld.beta, m), fp.mul_small(a[1], fld.beta, m))


def fp2_mul_xi(a: Fp2, fld) -> Fp2:
    """Multiplication by xi (the cubic/sextic non-residue), one reduction unit."""
    tick("m_xi")
    m = fld.modulus
    u0, u1 = fld.xi
    with fp2_scope:
        if (u0, u1) == (0, 1):
            # xi = mu: (c0 + c1 mu) mu = beta c1 + c0 mu
            return (fp.mul_small(a[1], fld.beta, m), a[0])
        c0 = (fp.mul_small(a[0], u0, m) if u0 else 0)
        if u1:
            c0 = fp.add_mod(c0, fp.mul_small(a[1], u1 * fld.beta, m), m)
        c1 = (fp.mul_small(a[1], u0, m) if u0 else 0)
        if u1:
            c1 = fp.add_mod(c1, fp.mul_small(a[0], u1, m), m)
        return (c0, c1)


def fp2_inv(a: Fp2, fld) -> Fp2:
    """(c0 - c1 mu) / (c0^2 - beta c1^2): 4m + 1 m_beta + 2a + 1i."""
    if fp2_is_zero(a):
        raise ZeroDivisionError("zero is not invertible in F_p2")
    tick("i2")
    m = fld.modulus
    with fp2_scope:
        t0 = fp.mont_mul(a[0], a[0], m)
        t1 = fp.mont_mul(a[1], a[1], m)
        d = fp.sub_mod(t0, fp.mul_small(t1, fld.beta, m), m)
        dinv = fp.inv_mod(d, m)
        c0 = fp.mont_mul(a[0], dinv, m)
        c1 = fp.neg_mod(fp.mont_mul(a[1], dinv, m), m)
    return (c0, c1)


def fp2_pow(a: Fp2, e: int, fld) -> Fp2:
    if e < 0:
        return fp2_pow(fp2_inv(a, fld), -e, fld)
    result = fp2_one(fld)
    if e == 0:
        return result
    for bit in bin(e)[2:]:
        result = fp2_mul(result, result, fld)
        if bit == "1":
            result = fp2_mul(result, a, fld)
    return result


# ---------------------------------------------------------------------------
# F_{p^6}
# ---------------------------------------------------------------------------


def fp6_zero(fld) -> Fp6:
    z = fp2_zero(fld)
    return (z, z, z)


def fp6_one(fld) -> Fp6:
    return (fp2_one(fld), fp2_zero(fld), fp2_zero(fld))


def fp6_is_zero(a: Fp6) -> bool:
    return all(fp2_is_zero(c) for c in a)


def fp6_add(a: Fp6, b: Fp6, fld) -> Fp6:
    return tuple(fp2_add(x, y, fld) for x, y in zip(a, b))


def fp6_sub(a: Fp6, b: Fp6, fld) -> Fp6:
    return tuple(fp2_sub(x, y, fld) for x, y in zip(a, b))


def fp6_neg(a: Fp6, fld) -> Fp6:
    return tuple(fp2_neg(x, fld) for x in a)


def fp6_mul(a: Fp6, b: Fp6, fld) -> Fp6:
    """Interleaved Karatsuba: 6 m2 + 2 m_xi + 15 a2."""
    tick("fp6_mul")
    a0, a1, a2 = a
    b0, b1, b2 = b
    t0 = fp2_mul(a0, b0, fld)
    t1 = fp2_mul(a1, b1, fld)
    t2 = fp2_mul(a2, b2, fld)
    # c0 = xi*[(a1+a2)(b1+b2) - t1 - t2] + t0
    u = fp2_mul(fp2_add(a1, a2, fld), fp2_add(b1, b2, fld), fld)
    u = fp2_sub(fp2_sub(u, t1, fld), t2, fld)
    c0 = fp2_add(fp2_mul_xi(u, fld), t0, fld)
    # c1 = (a0+a1)(b0+b1) - t0 - t1 + xi*t2
    v = fp2_mul(fp2_add(a0, a1, fld), fp2_add(b0, b1, fld), fld)
    v = fp2_sub(fp2_sub(v, t0, fld), t1, fld)
    c1 = fp2_add(v, fp2_mul_xi(t2, fld), fld)
    # c2 = (a0+a2)(b0+b2) - t0 - t2 + t1
    w = fp2_mul(fp2_add(a0, a2, fld), fp2_add(b0, b2, fld), fld)
    w = fp2_sub(fp2_sub(w, t0, fld), t2, fld)
    c2 = fp2_add(w, t1, fld)
    return (c0, c1, c2)


def fp6_sqr(a: Fp6, fld) -> Fp6:
    """2 m2 + 3 s2 + 2 m_xi + 10 a2."""
    tick("fp6_sqr")
    a0, a1, a2 = a
    s0 = fp2_sqr(a0, fld)
    ab = fp2_mul(a0, a1, fld)
    s1 = fp2_double(ab, fld)
    s2_ = fp2_sqr(fp2_add(fp2_sub(a0, a1, fld), a2, fld), fld)
    bc = fp2_mul(a1, a2, fld)
    s3 = fp2_double(bc, fld)
    s4 = fp2_sqr(a2, fld)
    c0 = fp2_add(s0, fp2_mul_xi(s3, fld), fld)
    c1 = fp2_add(s1, fp2_mul_xi(s4, fld), fld)
    c2 = fp2_sub(fp2_sub(fp2_add(fp2_add(s1, s2_, fld), s3, fld), s0, fld), s4, fld)
    return (c0, c1, c2)


def fp6_mul_by_nu(a: Fp6, fld) -> Fp6:
    """Multiply by nu: (a0, a1, a2) -> (xi*a2, a0, a1)."""
    return (fp2_mul_xi(a[2], fld), a[0], a[1])


def fp6_mul_fp2(a: Fp6, k: Fp2, fld) -> Fp6:
    return (fp2_mul(a[0], k, fld), fp2_mul(a[1], k, fld), fp2_mul(a[2], k, fld))


def fp6_inv(a: Fp6, fld) -> Fp6:
    if fp6_is_zero(a):
        raise ZeroDivisionError("zero is not invertible in F_p6")
    tick("fp6_inv")
    a0, a1, a2 = a
    A = fp2_sub(fp2_sqr(a0, fld), fp2_mul_xi(fp2_mul(a1, a2, fld), fld), fld)
    B = fp2_sub(fp2_mul_xi(fp2_sqr(a2, fld), fld), fp2_mul(a0, a1, fld), fld)
    C = fp2_sub(fp2_sqr(a1, fld), fp2_mul(a0, a2, fld), fld)
    F = fp2_add(
        fp2_mul(a0, A, fld),
        fp2_mul_xi(fp2_add(fp2_mul(a2, B, fld), fp2_mul(a1, C, fld), fld), fld),
        fld,
    )
    finv = fp2_inv(F, fld)
    return (fp2_mul(A, finv, fld), fp2_mul(B, finv, fld), fp2_mul(C, finv, fld))


# ---------------------------------------------------------------------------
# F_{p^12}
# ---------------------------------------------------------------------------


def fp12_zero(fld) -> Fp12:
    return (fp6_zero(fld), fp6_zero(fld))


def fp12_one(fld) -> Fp12:
    return (fp6_one(fld), fp6_zero(fld))


def fp12_is_zero(a: Fp12) -> bool:
    return fp6_is_zero(a[0]) and fp6_is_zero(a[1])


def fp12_is_one(a: Fp12, fld) -> bool:
    return a == fp12_one(fld)


def fp12_add(a: Fp12, b: Fp12, fld) -> Fp12:
    return (fp6_add(a[0], b[0], fld), fp6_add(a[1], b[1], fld))


def fp12_mul(a: Fp12, b: Fp12, fld) -> Fp12:
    """Karatsuba over F_{p^6}: 18 m2 + 7 m_xi + 60 a2."""
    tick("fp12_mul")
    t0 = fp6_mul(a[0], b[0], fld)
    t1 = fp6_mul(a[1], b[1], fld)
    t2 = fp6_mul(fp6_add(a[0], a[1], fld), fp6_add(b[0], b[1], fld), fld)
    c1 = fp6_sub(fp6_sub(t2, t0, fld), t1, fld)
    c0 = fp6_add(t0, fp6_mul_by_nu(t1, fld), fld)
    return (c0, c1)


def fp12_sqr(a: Fp12, fld) -> Fp12:
    """Complex method over F_{p^6}: 12 m2 + 6 m_xi + 45 a2."""
    tick("fp12_sqr")
    v0 = fp6_add(a[0], a[1], fld)
    v1 = fp6_add(a[0], fp6_mul_by_nu(a[1], fld), fld)
    t = fp6_mul(v0, v1, fld)
    w = fp6_mul(a[0], a[1], fld)
    c0 = fp6_sub(fp6_sub(t, w, fld), fp6_mul_by_nu(w, fld), fld)
    c1 = fp6_add(w, w, fld)
    return (c0, c1)


def fp12_conj(a: Fp12, fld) -> Fp12:
    """Conjugation over F_{p^6}, i.e. the p^6-power Frobenius."""
    tick("conjugation")
    return (a[0], fp6_neg(a[1], fld))


def fp12_inv(a: Fp12, fld) -> Fp12:
    if fp12_is_zero(a):
        raise ZeroDivisionError("zero is not invertible in F_p12")
    tick("fp12_inv")
    v0 = fp6_sqr(a[0], fld)
    v1 = fp6_sqr(a[1], fld)
    v = fp6_sub(v0, fp6_mul_by_nu(v1, fld), fld)
    vinv = fp6_inv(v, fld)
    return (fp6_mul(a[0], vinv, fld), fp6_neg(fp6_mul(a[1], vinv, fld), fld))


def fp12_mul_fp2(a: Fp12, k: Fp2, fld) -> Fp12:
    return (fp6_mul_fp2(a[0], k, fld), fp6_mul_fp2(a[1], k, fld))


# -- flattened coefficient view ---------------------------------------------
#
# F_{p^12} is also F_{p^2}[W]/(W^6 - xi) with omega = W and nu = W^2; the
# coefficient of W^(i + 2j) is a[i][j].  Frobenius maps and the compressed
# cyclotomic squaring work on this view.


def fp12_to_coeffs(a: Fp12) -> list[Fp2]:
    z = [None] * 6
    for i in (0, 1):
        for j in (0, 1, 2):
            z[i + 2 * j] = a[i][j]
    return z


def fp12_from_coeffs(z) -> Fp12:
    return (
        (z[0], z[2], z[4]),
        (z[1], z[3], z[5]),
    )


# ---------------------------------------------------------------------------
# Frobenius maps
# ---------------------------------------------------------------------------


def frobenius(a: Fp12, power: int, fld) -> Fp12:
    """The p^power Frobenius endomorphism (power in {1, 2, 3}).

    Coefficient-wise conjugation (odd powers) followed by multiplication with
    the precomputed constants xi^(k (p^power - 1)/6).
    """
    if power not in (1, 2, 3):
        raise ValueError("frobenius power must be 1, 2 or 3")
    tick("frobenius")
    gammas = fld.frobenius_constants[power]
    z = fp12_to_coeffs(a)
    out = []
    for k, zk in enumerate(z):
        w = fp2_conj(zk, fld) if power % 2 == 1 else zk
        out.append(fp2_mul(w, gammas[k], fld) if k else w)
    return fp12_from_coeffs(out)


def frobenius_p(a: Fp12, fld) -> Fp12:
    return frobenius(a, 1, fld)


def frobenius_p2(a: Fp12, fld) -> Fp12:
    return frobenius(a, 2, fld)


# ---------------------------------------------------------------------------
# Cyclotomic subgroup operations
# ---------------------------------------------------------------------------


def _fp4_sqr(a: Fp2, b: Fp2, fld) -> tuple[Fp2, Fp2, Fp2]:
    """Square a + b*V with V^2 = xi.

    Returns (a^2 + xi b^2, 2ab, xi*ab); the prescaled third component is
    reused by the caller so the xi-multiplication count stays at two.
    Cost: 2 m2 + 2 m_xi + 5 a2.
    """
    v0 = fp2_mul(a, b, fld)
    v1 = fp2_mul(fp2_add(a, b, fld), fp2_add(a, fp2_mul_xi(b, fld), fld), fld)
    xiv0 = fp2_mul_xi(v0, fld)
    c0 = fp2_sub(fp2_sub(v1, v0, fld), xiv0, fld)
    c1 = fp2_double(v0, fld)
    return c0, c1, xiv0


def cyclotomic_sqr(f: Fp12, fld) -> Fp12:
    """Compressed squaring valid on the cyclotomic subgroup only.

    Decomposes F_{p^12} into three quartic sub-extensions over the pairs
    (z0, z3), (z1, z4), (z2, z5) of W-basis coefficients and squares each;
    the subgroup relations recover the full square from the three quartic
    squares: 6 m2 + 6 m_xi + 39 a2.
    """
    tick("cyclotomic_sqr")
    z = fp12_to_coeffs(f)

    t00, t01, _ = _fp4_sqr(z[0], z[3], fld)
    t10, t11, _ = _fp4_sqr(z[1], z[4], fld)
    t20, t21, xiv = _fp4_sqr(z[2], z[5], fld)

    def combine(t: Fp2, zk: Fp2, sign: int) -> Fp2:
        # 3t -+ 2z, spelled out as repeated additions (4 a2)
        three_t = fp2_add(fp2_add(t, t, fld), t, fld)
        two_z = fp2_add(zk, zk, fld)
        if sign > 0:
            return fp2_add(three_t, two_z, fld)
        return fp2_sub(three_t, two_z, fld)

    out = [None] * 6
    out[0] = combine(t00, z[0], -1)
    xit21 = fp2_double(xiv, fld)  # xi * t21, reusing the prescaled product
    out[1] = combine(xit21, z[1], +1)
    out[2] = combine(t10, z[2], -1)
    out[3] = combine(t01, z[3], +1)
    out[4] = combine(t20, z[4], -1)
    out[5] = combine(t11, z[5], +1)
    return fp12_from_coeffs(out)


def cyclotomic_exp_naf(f: Fp12, e: int, fld) -> Fp12:
    """Exponentiation inside the cyclotomic subgroup using signed digits;
    inverses are conjugations."""
    if e == 0:
        return fp12_one(fld)
    if e < 0:
        return cyclotomic_exp_naf(fp12_conj(f, fld), -e, fld)
    digits = _naf(e)
    f_inv = fp12_conj(f, fld)
    result = f if digits[-1] == 1 else f_inv  # top digit of a NAF is 1
    for d in reversed(digits[:-1]):
        result = cyclotomic_sqr(result, fld)
        if d == 1:
            result = fp12_mul(result, f, fld)
        elif d == -1:
            result = fp12_mul(result, f_inv, fld)
    return result


def _naf(n: int) -> list[int]:
    out = []
    while n:
        if n & 1:
            d = 2 - (n % 4)
            out.append(d)
            n -= d
        else:
            out.append(0)
        n >>= 1
    return out


def exp_by_t(f: Fp12, fld) -> Fp12:
    """f^t inside the cyclotomic subgroup.

    The curve parameter in sparse signed-binary form keeps this to a few
    multiplications on top of the squaring ladder (62 squarings and 2
    multiplications for the production parameter).
    """
    return cyclotomic_exp_naf(f, fld.t, fld)


# ---------------------------------------------------------------------------
# Sparse multiplication
# ---------------------------------------------------------------------------


def sparse_embed(line, fld) -> Fp12:
    """Zero-pad a sparse line (a, b, c) to a full F_{p^12} element.

    The three coefficients sit at 1, omega and omega*nu: ``a`` at c0.c0,
    ``b`` at c1.c0 and ``c`` at c1.c1.
    """
    z = fp2_zero(fld)
    return ((line.a, z, z), (line.b, line.c, z))


def sparse_mul(f: Fp12, line, fld) -> Fp12:
    """Multiply a full element by a sparse line: 13 m2 + 3 m_xi + ~28 a2."""
    tick("sparse_mul")
    a, b, c = line.a, line.b, line.c
    g0, g1, g2 = f[0]
    h0, h1, h2 = f[1]

    # t0 = f0 * (a, 0, 0): scalar multiple, 3 m2
    t0 = (fp2_mul(g0, a, fld), fp2_mul(g1, a, fld), fp2_mul(g2, a, fld))

    # t1 = f1 * (b, c, 0): 3x2 Karatsuba, 5 m2 + 1 m_xi
    v0 = fp2_mul(h0, b, fld)
    v1 = fp2_mul(h1, c, fld)
    u = fp2_mul(fp2_add(h0, h1, fld), fp2_add(b, c, fld), fld)
    w2 = fp2_mul(h2, b, fld)
    w3 = fp2_mul(h2, c, fld)
    t1 = (
        fp2_add(v0, fp2_mul_xi(w3, fld), fld),
        fp2_sub(fp2_sub(u, v0, fld), v1, fld),
        fp2_add(v1, w2, fld),
    )

    # middle = (f0 + f1) * (a + b, c, 0): same sparse shape, 5 m2 + 1 m_xi
    s0 = fp2_add(g0, h0, fld)
    s1 = fp2_add(g1, h1, fld)
    s2 = fp2_add(g2, h2, fld)
    d = fp2_add(a, b, fld)
    mv0 = fp2_mul(s0, d, fld)
    mv1 = fp2_mul(s1, c, fld)
    mu = fp2_mul(fp2_add(s0, s1, fld), fp2_add(d, c, fld), fld)
    mw2 = fp2_mul(s2, d, fld)
    mw3 = fp2_mul(s2, c, fld)
    middle = (
        fp2_add(mv0, fp2_mul_xi(mw3, fld), fld),
        fp2_sub(fp2_sub(mu, mv0, fld), mv1, fld),
        fp2_add(mv1, mw2, fld),
    )

    c1_out = fp6_sub(fp6_sub(middle, t0, fld), t1, fld)
    c0_out = fp6_add(t0, fp6_mul_by_nu(t1, fld), fld)
    return (c0_out, c1_out)


# ---------------------------------------------------------------------------
# Generic exponentiation
# ---------------------------------------------------------------------------


def fp12_pow(f: Fp12, e: int, fld) -> Fp12:
    """Left-to-right square-and-multiply; negative exponents via inversion."""
    if e < 0:
        return fp12_pow(fp12_inv(f, fld), -e, fld)
    result = fp12_one(fld)
    if e == 0:
        return result
    for bit in bin(e)[2:]:
        result = fp12_sqr(result, fld)
        if bit == "1":
            result = fp12_mul(result, f, fld)
    return result


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def fp12_to_hex(a: Fp12, fld) -> list[str]:
    """Twelve ordered hex field elements (c0.c0.c0, c0.c0.c1, c0.c1.c0, ...)."""
    m = fld.modulus
    out = []
    for half in a:
        for coeff in half:
            out.append(fp.encode_hex(coeff[0], m))
            out.append(fp.encode_hex(coeff[1], m))
    return out


def fp12_from_hex(items, fld) -> Fp12:
    if len(items) != 12:
        raise ValueError("an F_p12 element serializes to 12 field elements")
    m = fld.modulus
    vals = [fp.decode_hex(h, m) for h in items]
    halves = []
    for off in (0, 6):
        halves.append(tuple((vals[off + 2 * j], vals[off + 2 * j + 1]) for j in range(3)))
    return (halves[0], halves[1])
