"""BN curve parameter derivation and validation.

Everything downstream (tower, curve, pairing, CLI) consumes a single
immutable :class:`BnParams` produced by :func:`derive_params`.  The family
is parameterized by an integer ``t``::

    p   = 36 t^4 + 36 t^3 + 24 t^2 + 6 t + 1
    r   = 36 t^4 + 36 t^3 + 18 t^2 + 6 t + 1
    t_r = 6 t^2 + 1            (Frobenius trace, p + 1 - t_r = r)
    s   = 6 t + 2              (optimal-ate loop scalar)

The production parameter is ``t = 2^62 - 2^54 + 2^44`` with curve
``E: y^2 = x^3 + 5`` over the resulting 254-bit prime.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from . import curve, fp, tower

SCHEMA_VERSION = 1

#: Production curve parameter (254-bit p and r).
PAPER_T = 2**62 - 2**54 + 2**44
PAPER_B = 5

# Search orders are fixed so derivation is deterministic.
_BETA_CANDIDATES = (-5, -1, -2, -3, -7, -11, -13, -17, -19)
_XI_CANDIDATES = ((0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4))


class ParamError(ValueError):
    """Raised when a candidate parameter set fails validation; the message
    lists every failed invariant."""


@dataclass(frozen=True)
class _MiniField:
    """Just enough field context for tower arithmetic during derivation."""

    modulus: fp.PrimeModulus
    beta: int
    xi: tuple[int, int] = (0, 1)
    t: int = 0


@dataclass(frozen=True)
class BnParams:
    """Immutable, fully validated BN parameter set."""

    t: int
    p: int
    r: int
    t_r: int
    b: int
    s: int
    s_naf: tuple[int, ...]
    beta: int
    xi: tuple[int, int]
    twist_type: str
    modulus: fp.PrimeModulus
    frobenius_constants: dict
    b_twist: tower.Fp2
    g1_gen: tuple[int, int]
    g2_gen: tuple[tower.Fp2, tower.Fp2]
    g2_cofactor: int
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def params_id(self) -> str:
        digest = hashlib.sha256(
            json.dumps([self.t, self.p, self.r, self.b, self.beta, self.xi]).encode()
        ).hexdigest()
        return f"bn{self.p.bit_length()}-{digest[:12]}"

    def to_json(self) -> str:
        m = self.modulus

        def hx(v: int) -> str:
            return fp.encode_hex(fp.to_mont(v, m), m)

        def hx2(a: tower.Fp2) -> list[str]:
            return [fp.encode_hex(a[0], m), fp.encode_hex(a[1], m)]

        doc = {
            "schema_version": SCHEMA_VERSION,
            "params_id": self.params_id,
            "t": hex(self.t),
            "p": hex(self.p),
            "r": hex(self.r),
            "t_r": hex(self.t_r),
            "b": self.b,
            "s": hex(self.s),
            "s_naf": list(self.s_naf),
            "beta": self.beta,
            "xi": list(self.xi),
            "twist_type": self.twist_type,
            "g2_cofactor": hex(self.g2_cofactor),
            "b_twist": hx2(self.b_twist),
            "g1_generator": [hx(self.g1_gen[0]), hx(self.g1_gen[1])],
            "g2_generator": [hx2(self.g2_gen[0]), hx2(self.g2_gen[1])],
            "frobenius_constants": {
                str(power): [hx2(g) for g in gammas]
                for power, gammas in self.frobenius_constants.items()
            },
            "warnings": list(self.warnings),
        }
        return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# NAF recoding
# ---------------------------------------------------------------------------


def naf_recode(s: int) -> list[int]:
    """Canonical non-adjacent form of ``s > 0``, least-significant digit first.

    Digits are in {-1, 0, 1}, no two adjacent digits are nonzero, and
    ``sum(d * 2**i) == s``.  The digit list has at most ``bitlen(s) + 1``
    entries.
    """
    if s <= 0:
        raise ValueError("naf_recode requires a positive integer")
    out = []
    n = s
    while n:
        if n & 1:
            d = 2 - (n % 4)
            out.append(d)
            n -= d
        else:
            out.append(0)
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# Square roots
# ---------------------------------------------------------------------------


def _sqrt_fp(a: int, m: fp.PrimeModulus) -> int | None:
    """Square root of a non-Montgomery residue mod p, or None."""
    p = m.p
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    rng = random.Random(0x5157)
    while True:
        z = rng.randrange(2, p)
        if pow(z, (p - 1) // 2, p) == p - 1:
            break
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    u = pow(a, q, p)
    while u != 1:
        d, k = u, 0
        while d != 1:
            d = d * d % p
            k += 1
        b = pow(c, 1 << (e - k - 1), p)
        x = x * b % p
        c = b * b % p
        u = u * c % p
        e = k
    return x


def _sqrt_fp2(a: tower.Fp2, fld) -> tower.Fp2 | None:
    """Tonelli-Shanks in F_{p^2} (multiplicative group order p^2 - 1)."""
    p = fld.modulus.p
    n = p * p - 1
    if tower.fp2_is_zero(a):
        return a
    one = tower.fp2_one(fld)
    if tower.fp2_pow(a, n // 2, fld) != one:
        return None
    q, e = n, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    rng = random.Random(0x5157)
    while True:
        z = tower.fp2_from_ints(rng.randrange(p), rng.randrange(p), fld)
        if not tower.fp2_is_zero(z) and tower.fp2_pow(z, n // 2, fld) != one:
            break
    c = tower.fp2_pow(z, q, fld)
    x = tower.fp2_pow(a, (q + 1) // 2, fld)
    u = tower.fp2_mul(tower.fp2_mul(x, x, fld), tower.fp2_inv(a, fld), fld)
    # maintain x^2 = a * u with u in the 2-Sylow subgroup
    while u != one:
        d, k = u, 0
        while d != one:
            d = tower.fp2_mul(d, d, fld)
            k += 1
        b = tower.fp2_pow(c, 1 << (e - k - 1), fld)
        x = tower.fp2_mul(x, b, fld)
        c = tower.fp2_mul(b, b, fld)
        u = tower.fp2_mul(u, c, fld)
        e = k
    return x


# ---------------------------------------------------------------------------
# Twist points
# ---------------------------------------------------------------------------


def _twist_points(b_twist: tower.Fp2, fld, count: int):
    """Deterministic scan for affine points on y^2 = x^3 + b_twist."""
    found = []
    for n in range(1, 4000):
        for x0, x1 in ((n, 0), (0, n), (n, 1), (1, n)):
            x = tower.fp2_from_ints(x0, x1, fld)
            rhs = tower.fp2_add(tower.fp2_mul(tower.fp2_mul(x, x, fld), x, fld), b_twist, fld)
            y = _sqrt_fp2(rhs, fld)
            if y is not None and not tower.fp2_is_zero(y):
                if tower.fp2_to_ints(y, fld) > tower.fp2_to_ints(tower.fp2_neg(y, fld), fld):
                    y = tower.fp2_neg(y, fld)
                found.append((x, y))
                if len(found) >= count:
                    return found
    return found


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def _family_polynomials(t: int) -> tuple[int, int, int]:
    p = 36 * t**4 + 36 * t**3 + 24 * t**2 + 6 * t + 1
    r = 36 * t**4 + 36 * t**3 + 18 * t**2 + 6 * t + 1
    t_r = 6 * t**2 + 1
    return p, r, t_r


def _xi_is_sexticly_irreducible(xi: tuple[int, int], fld) -> bool:
    """xi must be neither a square nor a cube in F_{p^2} so that W^6 - xi
    is irreducible."""
    p = fld.modulus.p
    n = p * p - 1
    one = tower.fp2_one(fld)
    x = tower.fp2_from_ints(xi[0], xi[1], fld)
    if tower.fp2_is_zero(x):
        return False
    if tower.fp2_pow(x, n // 2, fld) == one:
        return False
    if n % 3 == 0 and tower.fp2_pow(x, n // 3, fld) == one:
        return False
    return True


def _twist_order_matches(b_twist: tower.Fp2, order: int, fld) -> bool:
    pts = _twist_points(b_twist, fld, 3)
    if len(pts) < 3:
        return False
    return all(
        curve.g2_scalar_mul(curve.G2Point.from_affine(x, y, fld), order, fld).infinity
        for x, y in pts
    )


def compute_frobenius_constants(modulus: fp.PrimeModulus, beta: int, xi: tuple[int, int]) -> dict:
    """Per-coefficient constants gamma[power][k] = xi^(k (p^power - 1)/6)
    for power in {1, 2, 3} and k in 0..5."""
    fld = _MiniField(modulus, beta, xi)
    x = tower.fp2_from_ints(xi[0], xi[1], fld)
    p = modulus.p
    table = {}
    for power in (1, 2, 3):
        step = (p**power - 1) // 6
        table[power] = [tower.fp2_pow(x, k * step, fld) for k in range(6)]
    return table


def derive_params(t: int, b: int = PAPER_B) -> BnParams:
    """Derive, validate and freeze a full BN parameter set for parameter t.

    Raises :class:`ParamError` listing every failed invariant if the
    candidate is unusable.
    """
    errors: list[str] = []
    warnings: list[str] = []
    if t == 0:
        raise ParamError("t must be nonzero")

    p, r, t_r = _family_polynomials(t)
    if p < 5:
        raise ParamError(f"p = {p} too small to define a field")
    if not fp.is_probable_prime(p):
        errors.append(f"p = {p:#x} is composite")
    if not fp.is_probable_prime(r):
        errors.append(f"r = {r:#x} is composite")
    if p + 1 - t_r != r:
        errors.append("Hasse/BN consistency p + 1 - t_r = r violated")
    if errors:
        raise ParamError("; ".join(errors))

    modulus = fp.PrimeModulus.from_int(p)
    s = 6 * t + 2
    if s <= 0:
        raise ParamError(f"s = 6t+2 = {s} must be positive for the ate loop")
    s_naf = tuple(naf_recode(s))

    # Deterministic (beta, xi) search: beta must be a quadratic non-residue
    # mod p, xi neither a square nor a cube in F_{p^2}, and the D-type twist
    # y'^2 = x'^3 + b/xi must have order r*(2p - r).
    h2 = 2 * p - r
    chosen = None
    for beta in _BETA_CANDIDATES:
        if pow(beta % p, (p - 1) // 2, p) != p - 1:
            continue
        for xi in _XI_CANDIDATES:
            fld = _MiniField(modulus, beta, xi)
            if not _xi_is_sexticly_irreducible(xi, fld):
                continue
            xival = tower.fp2_from_ints(xi[0], xi[1], fld)
            b_twist = tower.fp2_mul(
                tower.fp2_from_ints(b, 0, fld), tower.fp2_inv(xival, fld), fld
            )
            if _twist_order_matches(b_twist, r * h2, fld):
                chosen = (beta, xi, fld, b_twist, "D")
                break
        if chosen:
            break
    if chosen is None:
        raise ParamError(
            "no (beta, xi) candidate yields an irreducible tower with a "
            "D-type twist of order r*(2p - r)"
        )
    beta, xi, fld, b_twist, twist_type = chosen

    # G1 generator: smallest x >= 1 with x^3 + b a square; smaller root.
    g1 = None
    for x in range(1, 10000):
        y = _sqrt_fp(x**3 + b, modulus)
        if y is not None and y != 0:
            y = min(y, p - y)
            g1 = (x, y)
            break
    if g1 is None:
        errors.append("G1 generator search exhausted (x < 10000)")

    # G2 generator: cofactor-clear the first deterministic twist point.
    g2 = None
    for x, y in _twist_points(b_twist, fld, 6):
        cand = curve.g2_scalar_mul(curve.G2Point.from_affine(x, y, fld), h2, fld)
        if not cand.infinity:
            if not curve.g2_scalar_mul(cand, r, fld).infinity:
                errors.append("cofactor-cleared twist point does not have order r")
                break
            g2 = curve.g2_to_affine(cand, fld)
            break
    if g2 is None and not errors:
        errors.append("G2 generator search exhausted")

    if errors:
        raise ParamError("; ".join(errors))

    frob = compute_frobenius_constants(modulus, beta, xi)

    if r.bit_length() < 256:
        warnings.append(
            f"log2(r) = {r.bit_length()} is below the 256-bit group-order "
            "guideline for 128-bit security"
        )
    sec_product = 12 * p.bit_length()
    if not 3000 <= sec_product <= 5000:
        warnings.append(
            f"embedding-degree/field-size product {sec_product} is outside "
            "the 3000-5000 range expected at the 128-bit level"
        )

    return BnParams(
        t=t,
        p=p,
        r=r,
        t_r=t_r,
        b=b,
        s=s,
        s_naf=s_naf,
        beta=beta,
        xi=xi,
        twist_type=twist_type,
        modulus=modulus,
        frobenius_constants=frob,
        b_twist=b_twist,
        g1_gen=g1,
        g2_gen=g2,
        g2_cofactor=h2,
        warnings=tuple(warnings),
    )


def paper_params() -> BnParams:
    """The production 254-bit parameter set."""
    return derive_params(PAPER_T, PAPER_B)


def tiny_params() -> BnParams:
    """The toy curve (t = 1, p = 103) used for exhaustive differential tests."""
    return derive_params(1, PAPER_B)


def load_params_json(text: str) -> BnParams:
    """Rebuild a parameter set from a params.json document.

    The full set is re-derived from (t, b) and cross-checked against the
    stored constants, so a corrupted file is rejected rather than trusted.
    """
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParamError(f"unsupported schema_version {doc.get('schema_version')!r}")
    params = derive_params(int(doc["t"], 16), int(doc["b"]))
    for key, val in (("p", params.p), ("r", params.r), ("s", params.s)):
        if int(doc[key], 16) != val:
            raise ParamError(f"params.json field {key!r} disagrees with derivation")
    if doc.get("params_id") != params.params_id:
        raise ParamError("params.json params_id disagrees with derivation")
    return params
