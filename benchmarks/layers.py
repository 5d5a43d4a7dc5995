"""Per-layer measurements: micro-benchmarks of each layer's public
functions with counting off and on, exact operation counts, and the cost
model's simulated cycles.

Every micro-benchmark reports the median of several timed samples.  A
sample of a fast function times a batch of calls and divides by the batch
size.  A ``.counted`` metric makes the same calls inside an open
``costmodel.counting()`` scope.
"""

from __future__ import annotations

import random
import statistics
import time

from bnpair import costmodel, curve, fp, pairing, params, tower

#: wall time one sample of a fast function aims at, and samples per metric
SAMPLE_S = 0.01
SAMPLES = 9
#: functions slower than this get SLOW_SAMPLES samples of one call each
SLOW_CALL_S = 0.02
SLOW_SAMPLES = 5

UNIT_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}

FP_COUNTS = ("m", "a", "m_beta", "i")
TOWER_COUNTS = ("m2", "s2", "a2", "m_xi", "i2")


def per_call(fn, with_counted: bool) -> tuple[float, float | None]:
    """Median seconds per call of ``fn`` with counting off and, if asked,
    on.  The samples of the two alternate, so host drift hits both alike."""
    first = _seconds_per_call(fn, 1)
    if first >= SLOW_CALL_S:
        batch, samples = 1, SLOW_SAMPLES
    else:
        batch, samples = max(1, int(SAMPLE_S / max(first, 1e-7))), SAMPLES
    plain, counted = [], []
    for _ in range(samples):
        plain.append(_seconds_per_call(fn, batch))
        if with_counted:
            with costmodel.counting():
                counted.append(_seconds_per_call(fn, batch))
    return statistics.median(plain), statistics.median(counted) if with_counted else None


def _seconds_per_call(fn, batch: int) -> float:
    t0 = time.perf_counter()
    for _ in range(batch):
        fn()
    return (time.perf_counter() - t0) / batch


def micro_benchmarks(ctx, seed: int, counts: costmodel.OpCounts) -> dict[str, tuple[float, str]]:
    """``{metric: (value, unit)}`` for every micro-benchmarked function;
    ``counts`` are the pairing's, priced by the cost-model benchmarks."""
    par, F = ctx.par, ctx.F
    m = par.modulus
    rng = random.Random(f"micro:{seed}")

    def fe():
        return rng.randrange(1, par.p)

    def fe2():
        return (fe(), fe())

    def fe12():
        return tuple(tuple(fe2() for _ in range(3)) for _ in range(2))

    a_fix, b_fix = ctx.fixed_scalars()
    P = ctx.to_lib_g1(F.point_mul(ctx.g1, rng.randrange(1, par.r)))
    Q = ctx.to_lib_g2(F.point_mul(ctx.g2, rng.randrange(1, par.r)))
    R = ctx.to_lib_g2(F.point_mul(ctx.g2, rng.randrange(1, par.r)))
    q_aff = (R.X, R.Y)  # from_affine sets Z = 1
    T = curve.doubling_step(Q, P, par)[0]
    line = curve.doubling_step(T, P, par)[1]
    x, y, k = fe(), fe(), par.beta
    u, v = fe2(), fe2()
    f, g = fe12(), fe12()
    f_ml = pairing.miller_loop(P, Q, par)
    f_cyc = pairing.easy_part(f_ml, par)
    e = pairing.final_exponentiation(f_ml, par)

    # (metric, unit, call, also counted)
    table = [
        ("fp.mont_mul", "ns", lambda: fp.mont_mul(x, y, m), True),
        ("fp.add_mod", "ns", lambda: fp.add_mod(x, y, m), True),
        ("fp.mul_small", "ns", lambda: fp.mul_small(x, k, m), True),
        ("fp.inv_mod", "us", lambda: fp.inv_mod(x, m), True),
        ("tower.fp2_mul", "ns", lambda: tower.fp2_mul(u, v, par), True),
        ("tower.fp2_sqr", "ns", lambda: tower.fp2_sqr(u, par), True),
        ("tower.fp2_add", "ns", lambda: tower.fp2_add(u, v, par), True),
        ("tower.fp12_mul", "us", lambda: tower.fp12_mul(f, g, par), True),
        ("tower.cyclotomic_sqr", "us", lambda: tower.cyclotomic_sqr(f_cyc, par), True),
        ("tower.sparse_mul", "us", lambda: tower.sparse_mul(f, line, par), True),
        ("tower.fp12_inv", "us", lambda: tower.fp12_inv(f, par), False),
        ("tower.fp12_pow_r", "ms", lambda: tower.fp12_pow(e, par.r, par), False),
        ("curve.doubling_step", "us", lambda: curve.doubling_step(T, P, par), True),
        ("curve.addition_step", "us", lambda: curve.addition_step(T, q_aff, P, par), True),
        ("curve.g1_scalar_mul", "ms", lambda: curve.g1_scalar_mul(ctx.lib_g1, a_fix, par), False),
        ("curve.g2_scalar_mul", "ms", lambda: curve.g2_scalar_mul(ctx.lib_g2, b_fix, par), False),
        ("pairing.miller_loop", "ms", lambda: pairing.miller_loop(P, Q, par), True),
        ("pairing.easy_part", "ms", lambda: pairing.easy_part(f_ml, par), True),
        ("pairing.hard_part", "ms", lambda: pairing.hard_part(f_cyc, par), True),
        ("pairing.validate_g1", "us", lambda: pairing.validate_g1(P, par), True),
        ("pairing.validate_g2", "ms", lambda: pairing.validate_g2(Q, par), True),
        ("pairing.optimal_ate", "ms", lambda: pairing.optimal_ate(P, Q, par), True),
        ("params.tiny_params", "ms", params.tiny_params, False),
    ]
    out: dict[str, tuple[float, str]] = {}
    for name, unit, fn, with_counted in table:
        plain, counted = per_call(fn, with_counted)
        out[f"{name}_{unit}"] = (plain * UNIT_SCALE[unit], unit)
        if with_counted:
            out[f"{name}_{unit}.counted"] = (counted * UNIT_SCALE[unit], unit)

    model = costmodel.CycleModel()
    profiles, scheduled = costmodel.PROFILES, tuple(costmodel.DUAL_UTILIZATION)
    predict, _ = per_call(
        lambda: [costmodel.predict_cycles(counts, model, prof, p=par.p) for prof in profiles], False
    )
    simulate, _ = per_call(
        lambda: [costmodel.simulate_dual_schedule(fn, model) for fn in scheduled], False
    )
    out["costmodel.predict_cycles_us"] = (predict / len(profiles) * 1e6, "us")
    out["costmodel.simulate_dual_schedule_us"] = (simulate / len(scheduled) * 1e6, "us")

    plain, counted = per_call(
        lambda: pairing.final_exponentiation(pairing.miller_loop(P, Q, par), par), True
    )
    out["costmodel.count_overhead"] = (counted / plain, "ratio")
    return out


def pairing_counts(ctx) -> costmodel.OpCounts:
    """Op counts of one Miller loop + final exponentiation on fixed points."""
    par, F = ctx.par, ctx.F
    a, b = ctx.fixed_scalars()
    P = ctx.to_lib_g1(F.point_mul(ctx.g1, a))
    Q = ctx.to_lib_g2(F.point_mul(ctx.g2, b))
    _, counts = costmodel.with_counting(
        lambda: pairing.final_exponentiation(pairing.miller_loop(P, Q, par), par)
    )
    return counts


def request_counts(workload) -> costmodel.OpCounts:
    """Op counts of one request of ``workload`` on its seed-independent input."""
    req = workload.make_fixed()
    _, counts = costmodel.with_counting(lambda: workload.call(req))
    return counts


def count_metrics(counts: costmodel.OpCounts) -> dict[str, tuple[float, str]]:
    out = {f"fp.{s}": (counts[s], "count") for s in FP_COUNTS}
    out.update({f"tower.{s}": (counts[s], "count") for s in TOWER_COUNTS})
    return out


def model_metrics(ctx, counts: costmodel.OpCounts) -> dict[str, tuple[float, str]]:
    """Simulated cycles of the pairing's ``counts`` per profile and their
    error against the published time of each reference design."""
    model = costmodel.CycleModel()
    out = {}
    for prof in costmodel.PROFILES:
        cycles = costmodel.predict_cycles(counts, model, prof, p=ctx.par.p)
        ms = costmodel.predict_seconds(counts, model, prof, p=ctx.par.p) * 1e3
        out[f"costmodel.cycles.{prof}"] = (cycles, "cycles")
        out[f"costmodel.model_err.{prof}"] = (
            ms / costmodel.DESIGN_REFERENCE[prof]["time_ms"] - 1, "ratio"
        )
    return out


def host_explained_share(counts, micro, request_s: float, counted: bool) -> float:
    """Share of one request's host time that count x (seconds per F_p op)
    explains, over the four base-field counters."""
    suffix = ".counted" if counted else ""
    price_s = {
        "m": micro["fp.mont_mul_ns" + suffix][0] * 1e-9,
        "a": micro["fp.add_mod_ns" + suffix][0] * 1e-9,
        "m_beta": micro["fp.mul_small_ns" + suffix][0] * 1e-9,
        "i": micro["fp.inv_mod_us" + suffix][0] * 1e-6,
    }
    return sum(counts[s] * price_s[s] for s in FP_COUNTS) / request_s
