"""Command-line front end.

Subcommands::

    bnpair params   (--t N | --paper)             print params.json
    bnpair pair     --p X Y --q X0 X1 Y0 Y1       compute a pairing
    bnpair selftest [--level quick|full]          run built-in checks
    bnpair vectors  --count N --seed S [--out F]  emit test vectors
    bnpair vectors  --verify FILE                 re-verify a vector file
    bnpair cost     --arch A --function F         cost-model report

Machine output goes to stdout as JSON (``--format csv`` for tables);
diagnostics go to stderr.  Exit codes: 0 success, 1 validation failure,
2 usage error.  The ``PAIRING_PARAMS`` environment variable may point to a
params.json file used when no --t/--paper flag is given.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import costmodel, curve, pairing, params as params_mod, tower
from .costmodel import CycleModel, with_counting
from .curve import G1Point, G2Point
from .pairing import PairingError
from .params import BnParams, ParamError

VECTOR_SCHEMA_VERSION = 1


def _resolve_params(args) -> BnParams:
    if getattr(args, "paper", False):
        return params_mod.paper_params()
    t = getattr(args, "t", None)
    if t is not None:
        return params_mod.derive_params(t, getattr(args, "b", params_mod.PAPER_B))
    override = os.environ.get("PAIRING_PARAMS")
    if override:
        with open(override, "r", encoding="utf-8") as fh:
            return params_mod.load_params_json(fh.read())
    return params_mod.paper_params()


def _add_params_flags(sub) -> None:
    sub.add_argument("--t", type=lambda s: int(s, 0), default=None, help="curve parameter t")
    sub.add_argument("--b", type=int, default=params_mod.PAPER_B, help="curve coefficient b")
    sub.add_argument("--paper", action="store_true", help="use the production 254-bit parameters")


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def cmd_params(args) -> int:
    par = _resolve_params(args)
    print(par.to_json())
    for w in par.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# pair
# ---------------------------------------------------------------------------


def _g1_from_hex(items: list[str], par) -> G1Point:
    from . import fp

    m = par.modulus
    return G1Point(
        fp.to_mont(int(items[0], 16), m), fp.to_mont(int(items[1], 16), m)
    )


def _g1_to_hex(P: G1Point, par) -> list[str]:
    from . import fp

    m = par.modulus
    return [fp.encode_hex(P.x, m), fp.encode_hex(P.y, m)]


def _g2_from_hex(items: list[str], par) -> G2Point:
    from . import fp

    m = par.modulus
    vals = [fp.to_mont(int(h, 16), m) for h in items]
    return G2Point.from_affine((vals[0], vals[1]), (vals[2], vals[3]), par)


def _g2_to_hex(Q: G2Point, par) -> list[str]:
    from . import fp

    m = par.modulus
    aff = curve.g2_to_affine(Q, par)
    return [fp.encode_hex(v, m) for xy in aff for v in xy]


def cmd_pair(args) -> int:
    par = _resolve_params(args)
    P = _g1_from_hex(args.p, par)
    Q = _g2_from_hex(args.q, par)
    pairing.validate_g1(P, par)
    pairing.validate_g2(Q, par)
    if args.miller_only:
        value = pairing.miller_loop(P, Q, par)
        key = "miller_output"
    else:
        value = pairing.optimal_ate(P, Q, par).value
        key = "pairing_output"
    doc = {"params_id": par.params_id, key: tower.fp12_to_hex(value, par)}
    if args.verify:
        if args.miller_only:
            value = pairing.final_exponentiation(value, par)
        ok = tower.fp12_pow(value, par.r, par) == tower.fp12_one(par)
        doc["verified_mu_r"] = ok
        if not ok:
            print(json.dumps(doc, indent=2))
            print("error: result is not in mu_r", file=sys.stderr)
            return 1
    print(json.dumps(doc, indent=2))
    return 0


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def _make_vectors(par, count: int, seed: int) -> dict:
    rng = random.Random(seed)
    g1 = curve.g1_generator(par)
    g2 = curve.g2_generator(par)
    entries = []
    for _ in range(count):
        a = rng.randrange(1, par.r)
        b = rng.randrange(1, par.r)
        P = curve.g1_scalar_mul(g1, a, par)
        Q = curve.g2_scalar_mul(g2, b, par)
        miller = pairing.miller_loop(P, Q, par)
        result = pairing.final_exponentiation(miller, par)
        entries.append(
            {
                "a": hex(a),
                "b": hex(b),
                "P": _g1_to_hex(P, par),
                "Q": _g2_to_hex(Q, par),
                "miller_output": tower.fp12_to_hex(miller, par),
                "pairing_output": tower.fp12_to_hex(result, par),
            }
        )
    return {
        "schema_version": VECTOR_SCHEMA_VERSION,
        "params_id": par.params_id,
        "entries": entries,
    }


def _verify_vectors(par, doc: dict) -> list[str]:
    problems = []
    if doc.get("schema_version") != VECTOR_SCHEMA_VERSION:
        return [f"unsupported schema_version {doc.get('schema_version')!r}"]
    if doc.get("params_id") != par.params_id:
        return [f"params_id mismatch: file {doc.get('params_id')!r} vs {par.params_id!r}"]
    g1 = curve.g1_generator(par)
    g2 = curve.g2_generator(par)
    for idx, entry in enumerate(doc.get("entries", [])):
        a = int(entry["a"], 16)
        b = int(entry["b"], 16)
        P = _g1_from_hex(entry["P"], par)
        Q = _g2_from_hex(entry["Q"], par)
        if P != curve.g1_scalar_mul(g1, a, par):
            problems.append(f"entry {idx}: P != [a]G1")
            continue
        if not curve.g2_eq(Q, curve.g2_scalar_mul(g2, b, par), par):
            problems.append(f"entry {idx}: Q != [b]G2")
            continue
        miller = pairing.miller_loop(P, Q, par)
        if tower.fp12_to_hex(miller, par) != entry["miller_output"]:
            problems.append(f"entry {idx}: miller_output mismatch")
            continue
        result = pairing.final_exponentiation(miller, par)
        if tower.fp12_to_hex(result, par) != entry["pairing_output"]:
            problems.append(f"entry {idx}: pairing_output mismatch")
    return problems


def cmd_vectors(args) -> int:
    par = _resolve_params(args)
    if args.verify:
        with open(args.verify, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = _verify_vectors(par, doc)
        if problems:
            for pr in problems:
                print(f"error: {pr}", file=sys.stderr)
            return 1
        print(json.dumps({"verified_entries": len(doc.get("entries", [])), "ok": True}))
        return 0
    doc = _make_vectors(par, args.count, args.seed)
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(doc['entries'])} vectors to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

_ARCH_TO_DESIGN = {
    "karatsuba": costmodel.SINGLE_DESIGN,
    "2mb": costmodel.DUAL_DESIGN,
}


def _measure_counts(function_id: str, par) -> costmodel.OpCounts:
    rng = random.Random(0xC0DE)

    def rand_fp2():
        return tower.fp2_from_ints(rng.randrange(par.p), rng.randrange(par.p), par)

    def rand_fp12():
        return tuple(tuple(rand_fp2() for _ in range(3)) for _ in range(2))

    g1 = curve.g1_generator(par)
    g2 = curve.g2_generator(par)
    T = curve.g2_scalar_mul(g2, 7, par)
    q_aff = curve.g2_to_affine(curve.g2_scalar_mul(g2, 11, par), par)

    runners = {
        "fp2_mul": lambda: tower.fp2_mul(rand_fp2(), rand_fp2(), par),
        "fp2_sqr": lambda: tower.fp2_sqr(rand_fp2(), par),
        "fp6_mul": lambda: tower.fp6_mul(
            tuple(rand_fp2() for _ in range(3)), tuple(rand_fp2() for _ in range(3)), par
        ),
        "fp12_mul": lambda: tower.fp12_mul(rand_fp12(), rand_fp12(), par),
        "fp12_sqr": lambda: tower.fp12_sqr(rand_fp12(), par),
        "doubling_step": lambda: curve.doubling_step(T, g1, par),
        "addition_step": lambda: curve.addition_step(T, q_aff, g1, par),
        "miller_loop": lambda: pairing.miller_loop(g1, g2, par),
        "final_exponentiation": lambda: pairing.final_exponentiation(rand_fp12(), par),
        # Input validation (subgroup checks) is deliberately outside the
        # counted region: the reported cost is the pairing computation.
        "pairing": lambda: pairing.final_exponentiation(
            pairing.miller_loop(g1, g2, par), par
        ),
    }
    # These two build their inputs outside the counted region.
    if function_id == "cyclotomic_sqr":
        f = pairing.easy_part(rand_fp12(), par)
        _, counts = with_counting(lambda: tower.cyclotomic_sqr(f, par))
        return counts
    if function_id == "sparse_mul":
        f = rand_fp12()
        line = curve.doubling_step(T, g1, par)[1]
        _, counts = with_counting(lambda: tower.sparse_mul(f, line, par))
        return counts
    if function_id not in runners:
        raise KeyError(f"unknown function {function_id!r}")
    _, counts = with_counting(runners[function_id])
    return counts


def cmd_cost(args) -> int:
    par = _resolve_params(args)
    model = CycleModel()
    counts = _measure_counts(args.function, par)
    cycles = costmodel.predict_cycles(counts, model, args.arch, p=par.p)
    seconds = cycles / costmodel.PROFILE_FREQ_HZ[args.arch]
    ref = costmodel.DESIGN_REFERENCE[args.arch]
    eff = costmodel.efficiency(
        costmodel.DATAPATH_BITS, ref["slices"], ref["dsp"], ref["bram"], seconds
    )
    doc = {
        "arch": args.arch,
        "function": args.function,
        "counts": counts.as_dict(),
        "predicted_cycles": cycles,
        "predicted_ms": round(seconds * 1e3, 4),
        "frequency_hz": costmodel.PROFILE_FREQ_HZ[args.arch],
        "efficiency": round(eff, 4),
    }
    design = _ARCH_TO_DESIGN.get(args.arch)
    if design:
        try:
            doc["symbolic"] = costmodel.compose_symbolic(args.function, design).render()
        except KeyError:
            pass
    # The published full-pairing figures are for the paper's curve; say how
    # far the model is from them rather than hide the disagreement.  The
    # published cycle count is shown as a time too: for karatsuba and 2mb it
    # is a tenth of the published time, a second disagreement.
    if args.function == "pairing" and (par.t, par.b) == (params_mod.PAPER_T, params_mod.PAPER_B):
        published = ref["time_ms"]
        doc["published_ms"] = published
        doc["published_err"] = round(seconds * 1e3 / published - 1, 4)
        doc["published_cycles"] = ref["cycles"]
        doc["published_cycles_ms"] = round(
            ref["cycles"] / costmodel.PROFILE_FREQ_HZ[args.arch] * 1e3, 4
        )
    if args.format == "csv":
        keys = ["arch", "function", "predicted_cycles", "predicted_ms", "efficiency"]
        print(",".join(keys))
        print(",".join(str(doc[k]) for k in keys))
    else:
        print(json.dumps(doc, indent=2))
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _selftest(level: str) -> list[str]:
    failures = []

    def check(name: str, ok: bool) -> None:
        status = "ok" if ok else "FAIL"
        print(f"  {name}: {status}", file=sys.stderr)
        if not ok:
            failures.append(name)

    tiny = params_mod.tiny_params()
    rng = random.Random(1)
    g1 = curve.g1_generator(tiny)
    g2 = curve.g2_generator(tiny)
    e = pairing.optimal_ate(g1, g2, tiny).value
    check("tiny: pairing in mu_r", tower.fp12_pow(e, tiny.r, tiny) == tower.fp12_one(tiny))
    check("tiny: non-degenerate", e != tower.fp12_one(tiny))
    a, b = rng.randrange(2, tiny.r), rng.randrange(2, tiny.r)
    eab = pairing.optimal_ate(
        curve.g1_scalar_mul(g1, a, tiny), curve.g2_scalar_mul(g2, b, tiny), tiny
    ).value
    check("tiny: bilinearity", eab == tower.fp12_pow(e, a * b % tiny.r, tiny))

    x = tower.fp2_from_ints(rng.randrange(tiny.p), rng.randrange(tiny.p), tiny)
    _, counts = with_counting(lambda: tower.fp2_mul(x, x, tiny))
    check(
        "counts: fp2_mul = 3m + 1m_beta + 5a",
        (counts.m, counts.m_beta, counts.a) == (3, 1, 5),
    )

    if level == "full":
        par = params_mod.paper_params()
        G1g = curve.g1_generator(par)
        G2g = curve.g2_generator(par)
        e = pairing.optimal_ate(G1g, G2g, par).value
        check("paper: pairing in mu_r", tower.fp12_pow(e, par.r, par) == tower.fp12_one(par))
        a, b = rng.randrange(2, par.r), rng.randrange(2, par.r)
        eab = pairing.optimal_ate(
            curve.g1_scalar_mul(G1g, a, par), curve.g2_scalar_mul(G2g, b, par), par
        ).value
        check("paper: bilinearity", eab == tower.fp12_pow(e, a * b % par.r, par))
        f = tuple(
            tuple(
                tower.fp2_from_ints(rng.randrange(par.p), rng.randrange(par.p), par)
                for _ in range(3)
            )
            for _ in range(2)
        )
        check(
            "paper: final exponentiation oracle",
            pairing.final_exponentiation(f, par)
            == tower.fp12_pow(f, (par.p**12 - 1) // par.r, par),
        )
        doc = _make_vectors(par, 2, 42)
        check("paper: vector round-trip", _verify_vectors(par, doc) == [])
    return failures


def cmd_selftest(args) -> int:
    failures = _selftest(args.level)
    if failures:
        print(f"selftest: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("selftest: all checks passed", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnpair", description="Optimal Ate pairing over BN curves"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("params", help="derive and print params.json")
    _add_params_flags(sp)
    sp.set_defaults(func=cmd_params)

    sp = subs.add_parser("pair", help="compute a pairing from hex points")
    _add_params_flags(sp)
    sp.add_argument("--p", nargs=2, required=True, metavar=("X", "Y"), help="G1 point, hex")
    sp.add_argument(
        "--q", nargs=4, required=True, metavar=("X0", "X1", "Y0", "Y1"), help="G2 point, hex"
    )
    sp.add_argument("--miller-only", action="store_true", help="skip final exponentiation")
    sp.add_argument("--verify", action="store_true", help="check the result lies in mu_r")
    sp.set_defaults(func=cmd_pair)

    sp = subs.add_parser("selftest", help="run built-in checks")
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    sp.set_defaults(func=cmd_selftest)

    sp = subs.add_parser("vectors", help="generate or verify test vectors")
    _add_params_flags(sp)
    sp.add_argument("--count", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    sp.add_argument("--verify", default=None, metavar="FILE", help="verify an existing file")
    sp.set_defaults(func=cmd_vectors)

    sp = subs.add_parser("cost", help="cost-model report")
    _add_params_flags(sp)
    sp.add_argument("--arch", choices=costmodel.PROFILES, required=True)
    sp.add_argument("--function", required=True, help="function id or 'pairing'")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_cost)
    return parser


def entry(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParamError, PairingError, curve.CurveError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console-script shim
    sys.exit(entry())


if __name__ == "__main__":
    main()
