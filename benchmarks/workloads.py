"""The three workloads: seeded inputs, one request, and its output check.

A workload hands the program only generated points and scalars.  The inputs
are made by the plain-integer oracle in ``oracle.py``, and every output is
checked outside the timed region against that oracle (bilinearity against
e(G1, G2)); the counted workload is also compared with the uncounted
computation and with its own first request.
"""

from __future__ import annotations

import random

from bnpair import costmodel, curve, pairing

from oracle import Field

#: one request in each block of this many carries an invalid G2 input
INVALID_EVERY = 8

#: cost_counted recomputes every this-many-th output with counting off and
#: compares bit for bit; every output is also checked by bilinearity
UNCOUNTED_CHECK_EVERY = 4

#: the five functions the dual-processor schedule simulator models
SCHEDULED = tuple(costmodel.DUAL_UTILIZATION)


class Context:
    """Per-run state shared by the workloads: the oracle field, the
    generators in both representations, and the base pairing e(G1, G2)."""

    def __init__(self, par) -> None:
        self.par = par
        F = self.F = Field(par.p, par.beta, par.xi)
        self.g1 = ((par.g1_gen[0] % par.p, 0), (par.g1_gen[1] % par.p, 0))
        self.g2 = tuple((F.from_mont(c[0]), F.from_mont(c[1])) for c in par.g2_gen)
        self.b2 = (F.from_mont(par.b_twist[0]), F.from_mont(par.b_twist[1]))
        self.lib_g1 = curve.g1_generator(par)
        self.lib_g2 = curve.g2_generator(par)
        if self.lib_g1 != self.to_lib_g1(self.g1) or self.to_plain_g2(self.lib_g2) != self.g2:
            raise RuntimeError("oracle generators disagree with the library's")
        self.base = F.fp12_from_mont(pairing.optimal_ate(self.lib_g1, self.lib_g2, par).value)
        one = F.fp12_one()
        if self.base == one or F.fp12_pow(self.base, par.r) != one:
            raise RuntimeError("e(G1, G2) is not a nontrivial element of mu_r")
        self.off_subgroup = self._twist_point_outside_g2()

    def _twist_point_outside_g2(self):
        F = self.F
        for k in range(1, 1000):
            x = (k, 1)
            y = F.sqrt(F.add(F.mul(F.mul(x, x), x), self.b2))
            if y is not None and F.point_mul((x, y), self.par.r) is not None:
                return (x, y)
        raise RuntimeError("no twist point outside G2 among the first candidates")

    # -- library <-> oracle representations ---------------------------------

    def to_lib_g1(self, P) -> curve.G1Point:
        return curve.G1Point(self.F.to_mont(P[0][0]), self.F.to_mont(P[1][0]))

    def to_lib_g2(self, Q) -> curve.G2Point:
        m = self.F.to_mont
        return curve.G2Point.from_affine(
            (m(Q[0][0]), m(Q[0][1])), (m(Q[1][0]), m(Q[1][1])), self.par
        )

    def to_plain_g2(self, Q: curve.G2Point):
        F = self.F
        X, Y, Z = ((F.from_mont(c[0]), F.from_mont(c[1])) for c in (Q.X, Q.Y, Q.Z))
        if Z == (0, 0):
            return None
        zinv = F.inv(Z)
        zinv2 = F.mul(zinv, zinv)
        return (F.mul(X, zinv2), F.mul(Y, F.mul(zinv2, zinv)))

    def expected_pairing(self, a: int, b: int):
        """e([a]G1, [b]G2) by bilinearity: e(G1, G2)^(ab mod r)."""
        return self.F.fp12_pow(self.base, a * b % self.par.r)

    def fixed_scalars(self) -> tuple[int, int]:
        """Scalars that do not depend on the seed, for exactly repeatable counts."""
        r = self.par.r
        return 2 * r // 3, 3 * r // 5


class Workload:
    """A seeded request stream.  ``call`` is the timed part; ``check``
    returns None for a correct outcome or a description of the failure."""

    name = ""

    def __init__(self, ctx: Context, seed: int) -> None:
        self.ctx = ctx
        self.rng = random.Random(f"{self.name}:{seed}")
        self.index = 0

    def next_request(self):
        req = self.make(self.index)
        self.index += 1
        return req

    def scalars(self) -> tuple[int, int]:
        r = self.ctx.par.r
        return self.rng.randrange(1, r), self.rng.randrange(1, r)

    def points(self, a: int, b: int):
        ctx = self.ctx
        P = ctx.F.point_mul(ctx.g1, a)
        Q = ctx.F.point_mul(ctx.g2, b)
        return P, Q

    def make(self, index: int):
        raise NotImplementedError

    def make_fixed(self):
        """A request on the seed-independent scalars (for counting)."""
        raise NotImplementedError

    def call(self, req):
        raise NotImplementedError

    def check(self, req, value, error: Exception | None) -> str | None:
        raise NotImplementedError


class AteValidated(Workload):
    """``optimal_ate`` on fresh subgroup points; one request in each block of
    ``INVALID_EVERY`` carries a G2 input off the twist or outside G2."""

    name = "ate_validated"

    def make(self, index: int):
        if index % INVALID_EVERY == 0:
            self._invalid_slot = self.rng.randrange(INVALID_EVERY)
        a, b = self.scalars()
        kind = "valid"
        if index % INVALID_EVERY == self._invalid_slot:
            kind = self.rng.choice(("off_twist", "outside_subgroup"))
        return self._request(a, b, kind)

    def make_fixed(self):
        return self._request(*self.ctx.fixed_scalars(), "valid")

    def _request(self, a: int, b: int, kind: str):
        ctx, F = self.ctx, self.ctx.F
        P, Q = self.points(a, b)
        if kind == "off_twist":
            x, y = Q
            while F.on_curve((x, y), ctx.b2):
                y = F.add(y, (1, 0))
            Q = (x, y)
        elif kind == "outside_subgroup":
            Q = F.point_add(Q, ctx.off_subgroup)
        return {"kind": kind, "a": a, "b": b, "P": ctx.to_lib_g1(P), "Q": ctx.to_lib_g2(Q)}

    def call(self, req):
        return pairing.optimal_ate(req["P"], req["Q"], self.ctx.par)

    def check(self, req, value, error):
        if req["kind"] != "valid":
            if isinstance(error, pairing.PairingError):
                return None
            return f"{req['kind']} G2 input was not rejected (got {error!r})"
        if error is not None:
            return f"valid input raised {error!r}"
        got = self.ctx.F.fp12_from_mont(value.value)
        if got != self.ctx.expected_pairing(req["a"], req["b"]):
            return "e([a]G1, [b]G2) != e(G1, G2)^(ab)"
        return None


class VectorGen(Workload):
    """The body of ``bnpair vectors``: [a]G1, [b]G2, Miller loop, final
    exponentiation, with no input validation."""

    name = "vector_gen"

    def make(self, index: int):
        a, b = self.scalars()
        return {"kind": "valid", "a": a, "b": b}

    def make_fixed(self):
        a, b = self.ctx.fixed_scalars()
        return {"kind": "valid", "a": a, "b": b}

    def call(self, req):
        ctx, par = self.ctx, self.ctx.par
        P = curve.g1_scalar_mul(ctx.lib_g1, req["a"], par)
        Q = curve.g2_scalar_mul(ctx.lib_g2, req["b"], par)
        return P, Q, pairing.final_exponentiation(pairing.miller_loop(P, Q, par), par)

    def check(self, req, value, error):
        if error is not None:
            return f"raised {error!r}"
        ctx = self.ctx
        P, Q, e = value
        want_p, want_q = self.points(req["a"], req["b"])
        if P != ctx.to_lib_g1(want_p):
            return "g1_scalar_mul != [a]G1"
        if ctx.to_plain_g2(Q) != want_q:
            return "g2_scalar_mul != [b]G2"
        if ctx.F.fp12_from_mont(e) != ctx.expected_pairing(req["a"], req["b"]):
            return "e([a]G1, [b]G2) != e(G1, G2)^(ab)"
        return None


class CostCounted(Workload):
    """``bnpair cost --function pairing``: a counted Miller loop plus final
    exponentiation, cycle predictions for every profile, and the simulated
    schedule of each scheduled function."""

    name = "cost_counted"

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        self.reference = None

    def make(self, index: int):
        return self._request(index, *self.scalars())

    def make_fixed(self):
        return self._request(0, *self.ctx.fixed_scalars())

    def _request(self, index: int, a: int, b: int):
        P, Q = self.points(a, b)
        ctx = self.ctx
        return {"kind": "valid", "index": index, "a": a, "b": b,
                "P": ctx.to_lib_g1(P), "Q": ctx.to_lib_g2(Q)}

    def call(self, req):
        par = self.ctx.par
        f, counts = costmodel.with_counting(
            lambda: pairing.final_exponentiation(pairing.miller_loop(req["P"], req["Q"], par), par)
        )
        model = costmodel.CycleModel()
        cycles = {
            prof: costmodel.predict_cycles(counts, model, prof, p=par.p)
            for prof in costmodel.PROFILES
        }
        critical = {
            fn: costmodel.simulate_dual_schedule(fn, model).critical_path for fn in SCHEDULED
        }
        return f, counts, cycles, critical

    def check(self, req, value, error):
        if error is not None:
            return f"raised {error!r}"
        ctx, par = self.ctx, self.ctx.par
        f, counts, cycles, critical = value
        if ctx.F.fp12_from_mont(f) != ctx.expected_pairing(req["a"], req["b"]):
            return "e([a]G1, [b]G2) != e(G1, G2)^(ab)"
        if req["index"] % UNCOUNTED_CHECK_EVERY == 0:
            plain = pairing.final_exponentiation(pairing.miller_loop(req["P"], req["Q"], par), par)
            if f != plain:
                return "counted output differs from the uncounted output"
        report = (counts.as_dict(), cycles, critical)
        if self.reference is None:
            self.reference = report
        elif report != self.reference:
            return "op counts or cycle report differ between requests"
        return None


WORKLOADS = {cls.name: cls for cls in (AteValidated, VectorGen, CostCounted)}
