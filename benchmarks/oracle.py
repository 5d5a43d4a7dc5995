"""Plain-integer BN arithmetic that checks bnpair from outside.

Nothing here imports bnpair.  Values are plain integers mod p (not
Montgomery residues); :func:`from_mont` and :func:`to_mont` convert at the
boundary.  The representation follows bnpair's tower:

* F_p2 = F_p[u]/(u^2 - beta), an element is a pair ``(c0, c1)``;
* F_p12 = F_p2[w]/(w^6 - xi), an element is a list of six F_p2
  coefficients of w^0 .. w^5.  bnpair's nested ``((g0, g1, g2), (h0, h1, h2))``
  is g0 + h0 w + g1 w^2 + h1 w^3 + g2 w^4 + h2 w^5, because nu = w^2.

Points are affine ``(x, y)`` over F_p2 (G1 points have zero imaginary parts)
or ``None`` for infinity, on y^2 = x^3 + b.
"""

from __future__ import annotations

R = 1 << 256


class Field:
    """F_p2 and F_p12 arithmetic for one BN parameter set."""

    def __init__(self, p: int, beta: int, xi: tuple[int, int]) -> None:
        self.p = p
        self.beta = beta % p
        self.xi = (xi[0] % p, xi[1] % p)
        self.r_inv = pow(R, -1, p)

    # -- Montgomery boundary ------------------------------------------------

    def from_mont(self, a: int) -> int:
        return a * self.r_inv % self.p

    def to_mont(self, a: int) -> int:
        return (a << 256) % self.p

    def fp12_from_mont(self, f) -> list[tuple[int, int]]:
        (g0, g1, g2), (h0, h1, h2) = f
        return [(self.from_mont(c[0]), self.from_mont(c[1])) for c in (g0, h0, g1, h1, g2, h2)]

    # -- F_p2 ---------------------------------------------------------------

    def add(self, a, b):
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def sub(self, a, b):
        return ((a[0] - b[0]) % self.p, (a[1] - b[1]) % self.p)

    def mul(self, a, b):
        p = self.p
        return ((a[0] * b[0] + self.beta * a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p)

    def inv(self, a):
        p = self.p
        n = pow((a[0] * a[0] - self.beta * a[1] * a[1]) % p, -1, p)
        return (a[0] * n % p, -a[1] * n % p)

    def sqrt(self, a):
        """A square root of ``a`` in F_p2, or None when there is none."""
        p = self.p
        a0, a1 = a[0] % p, a[1] % p
        if a1 == 0:
            s = sqrt_mod(a0, p)
            if s is not None:
                return (s, 0)
            s = sqrt_mod(a0 * pow(self.beta, -1, p) % p, p)
            return None if s is None else (0, s)
        n = sqrt_mod((a0 * a0 - self.beta * a1 * a1) % p, p)
        if n is None:
            return None
        half = pow(2, -1, p)
        for cand in ((a0 + n) * half % p, (a0 - n) * half % p):
            x0 = sqrt_mod(cand, p)
            if x0:
                root = (x0, a1 * pow(2 * x0, -1, p) % p)
                if self.mul(root, root) == (a0, a1):
                    return root
        return None

    # -- F_p12 --------------------------------------------------------------

    def fp12_mul(self, f, g):
        p, beta = self.p, self.beta
        c0 = [0] * 11
        c1 = [0] * 11
        for i, (a0, a1) in enumerate(f):
            if not (a0 or a1):
                continue
            for j, (b0, b1) in enumerate(g):
                c0[i + j] += a0 * b0 + beta * a1 * b1
                c1[i + j] += a0 * b1 + a1 * b0
        x0, x1 = self.xi
        for k in range(10, 5, -1):  # w^6 = xi
            h0, h1 = c0[k] % p, c1[k] % p
            c0[k - 6] += x0 * h0 + beta * x1 * h1
            c1[k - 6] += x0 * h1 + x1 * h0
        return [(c0[k] % p, c1[k] % p) for k in range(6)]

    def fp12_one(self):
        return [(1, 0)] + [(0, 0)] * 5

    def fp12_pow(self, f, e: int):
        result = self.fp12_one()
        for bit in bin(e)[2:]:
            result = self.fp12_mul(result, result)
            if bit == "1":
                result = self.fp12_mul(result, f)
        return result

    # -- affine points on y^2 = x^3 + b ---------------------------------------

    def on_curve(self, P, b) -> bool:
        if P is None:
            return True
        x, y = P
        return self.mul(y, y) == self.add(self.mul(self.mul(x, x), x), b)

    def point_add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if y1 != y2 or y1 == (0, 0):
                return None
            xx = self.mul(x1, x1)
            lam = self.mul(self.add(self.add(xx, xx), xx), self.inv(self.add(y1, y1)))
        else:
            lam = self.mul(self.sub(y2, y1), self.inv(self.sub(x2, x1)))
        x3 = self.sub(self.sub(self.mul(lam, lam), x1), x2)
        return (x3, self.sub(self.mul(lam, self.sub(x1, x3)), y1))

    def point_mul(self, P, k: int):
        result = None
        for bit in bin(k)[2:]:
            result = self.point_add(result, result)
            if bit == "1":
                result = self.point_add(result, P)
        return result


def sqrt_mod(a: int, p: int) -> int | None:
    """Tonelli-Shanks square root mod an odd prime, or None for a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, x = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x
