"""Fixed-width 256-bit prime-field arithmetic in Montgomery form.

Values are Montgomery residues ``a * R mod p`` with ``R = 2**256`` carried as
plain Python integers; ``limbs`` exposes the 8x32-bit little-endian digit
vector that the hardware-style multiplier operates on.

Two multiplication paths are provided and proven equivalent by the test
suite:

* :func:`mont_mul` -- a word-level REDC used by all public arithmetic.
* :func:`mont_mul_traced` -- a digit-serial model with two nested loops (an
  outer loop producing one quotient digit ``q_i`` per iteration and an inner
  digit accumulation with explicit carry words) whose intermediate limb
  values can be inspected and compared against a hardware simulation.

Constant-time execution is explicitly not a goal of this reference model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .costmodel import tick

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1
NUM_LIMBS = 8
R_BITS = WORD_BITS * NUM_LIMBS  # 256
R = 1 << R_BITS
R_MASK = R - 1

MILLER_RABIN_ROUNDS = 64

#: FpElement is a plain integer in [0, p), interpreted as a Montgomery residue.
FpElement = int


def limbs(x: int, count: int = NUM_LIMBS) -> tuple[int, ...]:
    """Little-endian radix-2^32 digit vector of ``x``."""
    return tuple((x >> (WORD_BITS * j)) & WORD_MASK for j in range(count))


def from_limbs(digits) -> int:
    acc = 0
    for j, d in enumerate(digits):
        acc |= (d & WORD_MASK) << (WORD_BITS * j)
    return acc


def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS, seed: int = 0xB1) -> bool:
    """Miller-Rabin with deterministic pseudo-random bases."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(seed)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A 254/256-bit odd prime with its Montgomery precomputation."""

    p: int
    bitlen: int
    p_prime_inv: int        # -p[0]^-1 mod 2^32 (digit-serial quotient constant)
    n_prime: int            # -p^-1 mod R (word-level REDC constant)
    r_mod_p: int            # R mod p   == to_mont(1)
    r2_mod_p: int           # R^2 mod p (to-Montgomery conversion factor)

    @property
    def limbs(self) -> tuple[int, ...]:
        return limbs(self.p)

    @classmethod
    def from_int(cls, p: int) -> "PrimeModulus":
        if p % 2 == 0:
            raise ValueError("modulus must be odd")
        if p.bit_length() > R_BITS - 2:
            raise ValueError("modulus too large for the 8-limb datapath")
        if not is_probable_prime(p):
            raise ValueError("modulus failed primality test")
        p0 = p & WORD_MASK
        p_prime_inv = (-pow(p0, -1, 1 << WORD_BITS)) & WORD_MASK
        n_prime = (-pow(p, -1, R)) & R_MASK
        m = cls(
            p=p,
            bitlen=p.bit_length(),
            p_prime_inv=p_prime_inv,
            n_prime=n_prime,
            r_mod_p=R % p,
            r2_mod_p=(R * R) % p,
        )
        m.validate()
        return m

    def validate(self) -> None:
        if (self.p_prime_inv * (self.p & WORD_MASK)) & WORD_MASK != WORD_MASK:
            raise ValueError("p_prime_inv inconsistent with p")
        if not (0 <= self.r_mod_p < self.p and 0 <= self.r2_mod_p < self.p):
            raise ValueError("Montgomery constants out of range")
        if self.r_mod_p != R % self.p or self.r2_mod_p != (R * R) % self.p:
            raise ValueError("Montgomery constants inconsistent with p")


# ---------------------------------------------------------------------------
# Montgomery multiplication
# ---------------------------------------------------------------------------


def _redc(t: int, m: PrimeModulus) -> int:
    u = (t + ((t * m.n_prime) & R_MASK) * m.p) >> R_BITS
    return u - m.p if u >= m.p else u


def mont_mul(a: FpElement, b: FpElement, m: PrimeModulus) -> FpElement:
    """a * b * R^-1 mod p, canonical in [0, p)."""
    tick("m")
    return _redc(a * b, m)


def mont_mul_raw(a: FpElement, b: FpElement, m: PrimeModulus) -> FpElement:
    """Uncounted Montgomery product, for the domain conversions, which the
    cost model does not count."""
    return _redc(a * b, m)


def mont_mul_traced(a: FpElement, b: FpElement, m: PrimeModulus):
    """Digit-serial Montgomery multiplication with an inspectable limb trace.

    Returns ``(result, trace)`` where ``trace[i]`` records outer iteration
    ``i``: the quotient digit ``q_i``, the partial operand digit ``A[i]``,
    and the limb vector of the running sum after the iteration.  The running
    sum satisfies ``(S + A[i]*B + q_i*p) % 2^32 == 0`` at each quotient
    selection, which the tests assert.
    """
    e = NUM_LIMBS - 1
    A = limbs(a)
    B = limbs(b)
    P = limbs(m.p)
    S = [0] * (NUM_LIMBS + 1)  # one extra digit for the pre-reduction overflow
    trace = []
    for i in range(e + 1):
        h0 = S[0] + A[i] * B[0]
        q_i = (h0 * m.p_prime_inv) & WORD_MASK

        carry_ab = 0  # running carry of the A[i]*B accumulation chain
        carry_qp = 0  # running carry of the q_i*p reduction chain
        for j in range(e + 1):
            acc = S[j] + A[i] * B[j] + carry_ab
            lo = acc & WORD_MASK
            carry_ab = acc >> WORD_BITS

            acc2 = lo + q_i * P[j] + carry_qp
            if j > 0:
                S[j - 1] = acc2 & WORD_MASK
            else:
                # j = 0 always produces a zero low digit (that is what q_i
                # was chosen for); the shift drops it.
                assert acc2 & WORD_MASK == 0
            carry_qp = acc2 >> WORD_BITS

        # fold the carries into the (shifted) top limbs
        top = S[e + 1] + carry_ab + carry_qp
        S[e] = top & WORD_MASK
        S[e + 1] = top >> WORD_BITS
        trace.append({"i": i, "a_digit": A[i], "q": q_i, "s_limbs": tuple(S[: e + 2])})

    result = from_limbs(S)
    if result >= m.p:
        result -= m.p
    return result, trace


# ---------------------------------------------------------------------------
# Modular add/sub and conversions
# ---------------------------------------------------------------------------


def add_mod(a: FpElement, b: FpElement, m: PrimeModulus) -> FpElement:
    tick("a")
    c = a + b
    return c - m.p if c >= m.p else c


def sub_mod(a: FpElement, b: FpElement, m: PrimeModulus) -> FpElement:
    tick("a")
    c = a - b
    return c + m.p if c < 0 else c


def neg_mod(a: FpElement, m: PrimeModulus) -> FpElement:
    tick("a")
    return m.p - a if a else 0


def mul_small(a: FpElement, k: int, m: PrimeModulus) -> FpElement:
    """Multiplication by a small integer constant (counted as m_beta)."""
    tick("m_beta")
    return (a * k) % m.p


def to_mont(x: int, m: PrimeModulus) -> FpElement:
    if not 0 <= x < m.p:
        raise ValueError("value out of range for modulus")
    return mont_mul_raw(x, m.r2_mod_p, m)


def from_mont(a: FpElement, m: PrimeModulus) -> int:
    return mont_mul_raw(a, 1, m)


def inv_mod(a: FpElement, m: PrimeModulus) -> FpElement:
    """Montgomery-domain inverse, counted as one base-field inversion.

    For ``a = x R`` the integer inverse ``a^-1 = x^-1 R^-1`` is taken with
    Python's built-in extended Euclid (``pow(a, -1, p)``) and moved back into
    the Montgomery domain by one multiplication with ``R^2``, giving
    ``x^-1 R``.  Only the inversion is counted (one ``i``, no ``m``): the
    hardware model prices an inversion as a unit, however it is computed.
    """
    if a == 0:
        raise ZeroDivisionError("zero is not invertible")
    tick("i")
    return pow(a, -1, m.p) * m.r2_mod_p % m.p


# ---------------------------------------------------------------------------
# Zero test and hex I/O
# ---------------------------------------------------------------------------


def is_zero(a: FpElement) -> bool:
    return a == 0


HEX_WIDTH = 64  # 256 bits, big-endian, fixed width


def encode_hex(a: FpElement, m: PrimeModulus) -> str:
    """Big-endian fixed-width hex of the plain (non-Montgomery) integer."""
    return format(from_mont(a, m), f"0{HEX_WIDTH}x")


def decode_hex(text: str, m: PrimeModulus) -> FpElement:
    if len(text) != HEX_WIDTH:
        raise ValueError(f"expected {HEX_WIDTH} hex chars, got {len(text)}")
    try:
        value = int(text, 16)
    except ValueError:
        raise ValueError("malformed hex input") from None
    if value >= m.p:
        raise ValueError("decoded value is not below the modulus")
    return to_mont(value, m)
