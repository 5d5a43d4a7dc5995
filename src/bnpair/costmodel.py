"""Operation counting, cycle prediction, schedule simulation and efficiency.

This module owns all performance-model state:

* ``OpCounts`` / ``with_counting`` -- instrumentation counters that every
  field/curve operation ticks into while a counting scope is active.
* ``CycleModel`` / ``predict_cycles`` -- per-architecture cycle costs for the
  four modeled designs (pure software on a soft core, software plus a
  Montgomery multiplier IP, software plus a Karatsuba F_{p^2} IP, and the
  dual-processor variant of the latter).
* ``compose_symbolic`` -- the symbolic cost rows of the key pairing
  sub-functions for the single- and dual-processor Karatsuba designs.
* ``simulate_dual_schedule`` -- a deterministic list-schedule simulation of
  the master/slave task graphs, reporting critical path and utilization.
* ``efficiency`` -- the datapath / (area x time) figure of merit.

Counting contexts are intentionally thread-local and explicit: concurrent
computations that each open their own scope never contend, and a thread that
opened none records nothing while another thread counts.  A module-level
count of the scopes open in any thread, raised and lowered by ``counting()``
under a lock, keeps counting cheap when it is off: with no scope open,
``tick`` returns after one global load and the F_{p^2} nesting marker
``fp2_scope`` (one shared object, no generator) touches no state.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

# ---------------------------------------------------------------------------
# Operation counting
# ---------------------------------------------------------------------------

#: base-field (F_p) counter symbols
FP_SYMBOLS = ("a", "m", "s", "i", "m_beta")
#: quadratic-extension (F_{p^2}) counter symbols
FP2_SYMBOLS = ("a2", "m2", "s2", "i2", "m_xi")


class OpCounts:
    """A bundle of non-negative operation counters.

    Counters exist on two levels: base-field symbols (``m``, ``a``, ...) count
    every F_p operation, including the ones performed inside F_{p^2}
    operations; the ``direct_*`` variants count only F_p operations executed
    *outside* any F_{p^2} operation (for example the four F_p products that
    scale line coefficients inside a Miller step).
    """

    __slots__ = ("_c",)

    def __init__(self, initial: dict[str, int] | None = None) -> None:
        self._c: Counter[str] = Counter(initial or {})

    def __getattr__(self, name: str) -> int:
        if name.startswith("_"):
            raise AttributeError(name)
        return self._c.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self._c.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return {k: v for k, v in sorted(self._c.items()) if v}

    def __add__(self, other: "OpCounts") -> "OpCounts":
        merged = Counter(self._c)
        merged.update(other._c)
        return OpCounts(dict(merged))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpCounts):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return f"OpCounts({self.as_dict()})"


class CountingContext:
    """Mutable counting scope; single-owner, not to be shared across threads."""

    __slots__ = ("counts", "fp2_depth")

    def __init__(self) -> None:
        self.counts = OpCounts()
        self.fp2_depth = 0


_tls = threading.local()

#: counting scopes open in any thread; written only under ``_open_lock``
_open_scopes = 0
_open_lock = threading.Lock()


def tick(symbol: str, amount: int = 1) -> None:
    """Record ``amount`` occurrences of ``symbol`` in this thread's active
    scope, if any.  While no scope is open in any thread this costs one
    global load; otherwise a thread that opened no scope still records
    nothing."""
    if not _open_scopes:
        return
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        return
    c = ctx.counts._c
    c[symbol] += amount
    if ctx.fp2_depth == 0 and symbol in FP_SYMBOLS:
        c["direct_" + symbol] += amount


class _Fp2Scope:
    """Marks base-field ticks inside an F_{p^2} operation as nested.  One
    shared instance serves every call (``with fp2_scope:``).  No counting
    scope of this thread opens or closes inside one F_{p^2} operation, so
    ``__enter__`` and ``__exit__`` see the same context and the depth stays
    balanced, also when an exception passes through."""

    __slots__ = ()

    def __enter__(self) -> None:
        if _open_scopes:
            ctx = getattr(_tls, "ctx", None)
            if ctx is not None:
                ctx.fp2_depth += 1

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if _open_scopes:
            ctx = getattr(_tls, "ctx", None)
            if ctx is not None:
                ctx.fp2_depth -= 1


fp2_scope = _Fp2Scope()


@contextmanager
def counting() -> Iterator[CountingContext]:
    """Open a counting scope for the calling thread.  Nested scopes compose
    additively: ticks inside an inner scope are credited to every enclosing
    scope as well."""
    global _open_scopes
    outer = getattr(_tls, "ctx", None)
    ctx = CountingContext()
    if outer is not None:
        ctx.fp2_depth = outer.fp2_depth
    with _open_lock:
        _open_scopes += 1
    _tls.ctx = ctx
    try:
        yield ctx
    finally:
        _tls.ctx = outer
        with _open_lock:
            _open_scopes -= 1
        if outer is not None:
            outer.counts._c.update(ctx.counts._c)


def with_counting(computation: Callable[[], object]) -> tuple[object, OpCounts]:
    """Run ``computation`` under a fresh counting scope and return its result
    together with the recorded counters."""
    with counting() as ctx:
        result = computation()
    return result, ctx.counts


# ---------------------------------------------------------------------------
# Cycle model
# ---------------------------------------------------------------------------

PROFILES = ("sw", "mmm", "karatsuba", "2mb")

#: soft-core clock per profile, Hz
PROFILE_FREQ_HZ = {
    "sw": 125_000_000,
    "mmm": 100_000_000,
    "karatsuba": 100_000_000,
    "2mb": 100_000_000,
}

_DEFAULT_CONSTANTS: dict[str, int] = {
    # measured IP-core latencies
    "addsub_ip": 10,
    "mmm_ip": 130,
    "karatsuba_ip": 550,
    # F_{p^2} multiplication on the Karatsuba IP including bus transfer
    "karatsuba_with_transfer": 1240,
    "karatsuba_transfer_overhead": 690,
    # software timings on the soft core
    "fp2_mul_soft": 53942,
    "fp2_add_soft": 636,
    "fp2_red": 590,
    "fp_mul_soft": 12968,
    "fp_mul_mmm_ip": 475,
    # derived software costs (see CycleModel.validate for the identities)
    "fp_add_soft": 318,
    "fp_mul_beta_soft": 13448,
    # calibrated master/slave word-transfer cost (see demos/fsl_calibration.py)
    "fsl_word_transfer": 91,
}

SCHEMA_VERSION = 1


@dataclass
class CycleModel:
    """Per-operation cycle costs shared by the four architecture profiles."""

    constants: dict[str, int] = field(default_factory=lambda: dict(_DEFAULT_CONSTANTS))

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        missing = [k for k in _DEFAULT_CONSTANTS if k not in self.constants]
        if missing:
            raise ValueError(f"cycle model incomplete, missing {missing}")
        bad = [k for k, v in self.constants.items() if v <= 0]
        if bad:
            raise ValueError(f"cycle costs must be positive: {bad}")

    def cost(self, name: str) -> int:
        try:
            return self.constants[name]
        except KeyError:
            raise KeyError(f"no cycle cost configured for {name!r}") from None

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"schema_version": SCHEMA_VERSION, "constants": self.constants},
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CycleModel":
        doc = json.loads(text)
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported cycle model schema version")
        return cls(constants=dict(doc["constants"]))


def _fermat_inversion_mults(p: int) -> int:
    """Multiplication count of a square-and-multiply inversion a^(p-2)."""
    e = p - 2
    return (e.bit_length() - 1) + (bin(e).count("1") - 1)


def predict_cycles(counts: OpCounts, model: CycleModel, profile: str, p: int | None = None) -> int:
    """Dot product of operation counts with a profile's per-operation costs.

    For the software profiles every base-field operation is priced
    individually.  For the Karatsuba profiles, F_{p^2} operations are priced
    as units and only the base-field operations executed outside F_{p^2}
    (``direct_*`` counters) are added separately.
    """
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r}")
    c = model.cost
    inv_mults = _fermat_inversion_mults(p) if p is not None else 379

    if profile in ("sw", "mmm"):
        m_cost = c("fp_mul_soft") if profile == "sw" else c("fp_mul_mmm_ip")
        mb_cost = c("fp_mul_beta_soft") if profile == "sw" else c("fp_mul_mmm_ip")
        a_cost = c("fp_add_soft")
        i_cost = inv_mults * m_cost
        return (
            (counts.m + counts.s) * m_cost
            + counts.m_beta * mb_cost
            + counts.a * a_cost
            + counts.i * i_cost
        )

    # Karatsuba designs work at the F_{p^2} level.
    k = c("karatsuba_with_transfer")
    red = c("fp2_red")
    add2 = c("fp2_add_soft")
    i2_cost = 5 * c("fp_mul_mmm_ip") + 2 * c("fp_add_soft") + inv_mults * c("fp_mul_mmm_ip")
    direct = (
        counts.direct_m * c("fp_mul_mmm_ip")
        + counts.direct_s * c("fp_mul_mmm_ip")
        + counts.direct_m_beta * c("fp_mul_mmm_ip")
        + counts.direct_a * c("fp_add_soft")
        + counts.direct_i * inv_mults * c("fp_mul_mmm_ip")
    )
    mults = counts.m2 + counts.s2

    if profile == "karatsuba":
        return mults * k + counts.m_xi * red + counts.a2 * add2 + counts.i2 * i2_cost + direct

    # Dual-processor design: the master runs soft F_{p^2} additions while the
    # slave drives the Karatsuba IP.  Per reference schedule, up to two
    # additions hide under each multiplication, and each multiplication costs
    # about 3.5 word transfers of master time (21 transfers per 6-mult
    # F_{p^6} product).
    t = c("fsl_word_transfer")
    hidden = min(counts.a2, 2 * mults)
    transfers = round(3.5 * (mults + counts.m_xi))
    return (
        mults * k
        + counts.m_xi * red
        + (counts.a2 - hidden) * add2
        + transfers * t
        + counts.i2 * i2_cost
        + direct
    )


def predict_seconds(counts: OpCounts, model: CycleModel, profile: str, p: int | None = None) -> float:
    return predict_cycles(counts, model, profile, p) / PROFILE_FREQ_HZ[profile]


# ---------------------------------------------------------------------------
# Symbolic cost rows (single- and dual-processor Karatsuba designs)
# ---------------------------------------------------------------------------

SINGLE_DESIGN = "Mb/KARATSUBA"
DUAL_DESIGN = "2Mb/KARATSUBA"

#: (karatsuba, add soft F_{p^2}, red F_{p^2}) per function, single processor
_SYMBOLIC_SINGLE: dict[str, dict[str, int]] = {
    "fp6_mul": {"karatsuba": 6, "add_soft_fp2": 15, "red_fp2": 2},
    "fp12_mul": {"karatsuba": 18, "add_soft_fp2": 60, "red_fp2": 7},
    "cyclotomic_sqr": {"karatsuba": 6, "add_soft_fp2": 39, "red_fp2": 6},
    "sparse_mul": {"karatsuba": 14, "add_soft_fp2": 28, "red_fp2": 3},
    "doubling_step": {"karatsuba": 13, "add_soft_fp2": 24, "red_fp2": 0},
}

#: (karatsuba, add soft F_{p^2}, FSL transfers) per function, dual processor
_SYMBOLIC_DUAL: dict[str, dict[str, int]] = {
    "fp6_mul": {"karatsuba": 1, "add_soft_fp2": 14, "transfert_fsl": 21},
    "fp12_mul": {"karatsuba": 1, "add_soft_fp2": 51, "transfert_fsl": 68},
    "cyclotomic_sqr": {"karatsuba": 1, "add_soft_fp2": 27, "transfert_fsl": 27},
    "sparse_mul": {"karatsuba": 8, "add_soft_fp2": 20, "transfert_fsl": 34},
    "doubling_step": {"karatsuba": 1, "add_soft_fp2": 24, "transfert_fsl": 25},
}

#: published (MB0, MB1) task percentages per function for the dual design
DUAL_UTILIZATION = {
    "fp6_mul": (90.01, 76.82),
    "fp12_mul": (97.04, 75.46),
    "cyclotomic_sqr": (93.16, 82.98),
    "sparse_mul": (84.23, 78.78),
    "doubling_step": (93.92, 79.01),
}

_TERM_LABEL = {
    "karatsuba": "Karatsuba",
    "add_soft_fp2": "add soft F_p2",
    "red_fp2": "red F_p2",
    "transfert_fsl": "transfert FSL",
}


@dataclass(frozen=True)
class SymbolicCost:
    function_id: str
    design: str
    terms: dict[str, int]

    def render(self) -> str:
        parts = []
        for key, count in self.terms.items():
            if count == 0:
                continue
            label = _TERM_LABEL[key]
            parts.append(label if count == 1 else f"{count} {label}")
        return " + ".join(parts)

    def evaluate(self, model: CycleModel) -> int:
        cost_of = {
            "karatsuba": model.cost("karatsuba_with_transfer"),
            "add_soft_fp2": model.cost("fp2_add_soft"),
            "red_fp2": model.cost("fp2_red"),
            "transfert_fsl": model.cost("fsl_word_transfer"),
        }
        return sum(n * cost_of[k] for k, n in self.terms.items())


def compose_symbolic(function_id: str, design: str) -> SymbolicCost:
    """Return the symbolic cost expression of a key pairing sub-function."""
    if design == SINGLE_DESIGN:
        table = _SYMBOLIC_SINGLE
    elif design == DUAL_DESIGN:
        table = _SYMBOLIC_DUAL
    else:
        raise KeyError(f"unknown design {design!r}")
    try:
        terms = dict(table[function_id])
    except KeyError:
        raise KeyError(f"unknown function {function_id!r}") from None
    return SymbolicCost(function_id, design, terms)


# ---------------------------------------------------------------------------
# Dual-processor schedule simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleTask:
    proc: str  # "MB0" | "MB1" | "FSL"
    name: str
    start: int
    end: int


@dataclass
class ScheduleTrace:
    function_id: str
    tasks: list[ScheduleTask]
    transfer_words: int
    critical_path: int
    busy: dict[str, int]
    utilization: dict[str, float]


# The dual-processor F_{p^6} multiplication schedule, row by row.  Each row is
# either ("xfer", sent_words, received_words) -- the master drives the FSL
# link while the slave waits -- or ("par", [master tasks], [slave tasks])
# where task kinds are "add" (soft F_{p^2} add/sub on the master), "mul"
# (Karatsuba IP multiply, slave side), "red" (F_{p^2} reduction, slave side),
# "sadd" (soft add executed by the slave).
_FP6_MUL_ROWS: list[tuple] = [
    ("xfer", 2, 0),                     # {a0, b0}
    ("par", ["add", "add"], ["mul"]),   # ta01, tb01        | t0 = a0*b0
    ("xfer", 2, 0),                     # {a1, b1}
    ("par", ["add", "add"], ["mul"]),   # ta02, tb02        | t1 = a1*b1
    ("xfer", 2, 0),                     # {a2, b2}
    ("par", ["add", "add"], ["mul"]),   # ta12, tb12        | t2 = a2*b2
    ("xfer", 2, 0),                     # {ta12, tb12}
    ("par", [], ["mul"]),               #                   | ta12 = ta12*tb12
    ("xfer", 2, 3),                     # {ta01, tb01} out, {ta12, t1, t2} in
    ("par", ["add", "add"], ["mul"]),   # ta12 -= t1, t2    | ta01 = ta01*tb01
    ("xfer", 2, 2),                     # {ta02, tb02} out, {ta01, t0} in
    ("par", ["add", "add"], ["mul"]),   # ta01 -= t0, t1    | ta02 = ta02*tb02
    ("xfer", 1, 1),                     # {ta12} out, {ta02} in
    ("par", ["add", "add"], ["red", "red"]),  # ta02 -= t0, t2 | xi-reductions
    ("xfer", 0, 1),                     # {tb01}
    ("par", ["add", "add"], ["sadd"]),  # c1, c2            | c0 = ta12 + t0
    ("xfer", 0, 1),                     # {c0}
]


def _synthetic_rows(function_id: str) -> list[tuple]:
    """Task-graph rows for functions whose schedule is known only by totals.

    The single-processor decomposition fixes the slave workload (multiplies,
    reductions, and whatever additions the master does not keep); the dual
    row fixes the master addition count and the number of transfers.  Rows
    pair two master additions with one slave task, mirroring the reference
    schedule's structure.
    """
    single = _SYMBOLIC_SINGLE[function_id]
    dual = _SYMBOLIC_DUAL[function_id]
    slave: list[str] = (
        ["mul"] * single["karatsuba"]
        + ["red"] * single["red_fp2"]
        + ["sadd"] * max(0, single["add_soft_fp2"] - dual["add_soft_fp2"])
    )
    master_adds = dual["add_soft_fp2"]
    transfers = dual["transfert_fsl"]

    rows: list[tuple] = []
    # spread the transfers across the schedule: one batch before each slave
    # task, remainder at the end (received results)
    n_slots = len(slave) + 1
    base, extra = divmod(transfers, n_slots)
    si = 0
    remaining_adds = master_adds
    for si, stask in enumerate(slave):
        words = base + (1 if si < extra else 0)
        if words:
            rows.append(("xfer", words, 0))
        m = ["add"] * min(2, remaining_adds)
        remaining_adds -= len(m)
        rows.append(("par", m, [stask]))
    words = base + (1 if len(slave) < extra else 0)
    if words:
        rows.append(("xfer", 0, words))
    while remaining_adds > 0:
        m = ["add"] * min(2, remaining_adds)
        remaining_adds -= len(m)
        rows.append(("par", m, []))
    return rows


_TASK_GRAPHS: dict[str, Callable[[], list[tuple]]] = {
    "fp6_mul": lambda: list(_FP6_MUL_ROWS),
    "fp12_mul": lambda: _synthetic_rows("fp12_mul"),
    "cyclotomic_sqr": lambda: _synthetic_rows("cyclotomic_sqr"),
    "sparse_mul": lambda: _synthetic_rows("sparse_mul"),
    "doubling_step": lambda: _synthetic_rows("doubling_step"),
}


def simulate_dual_schedule(function_id: str, model: CycleModel) -> ScheduleTrace:
    """Deterministically list-schedule a function's master/slave task graph.

    Rows run strictly in order.  A transfer row occupies the master and the
    FSL link; a parallel row runs its master tasks and slave tasks
    concurrently and completes when the slower side finishes.  Transfer time
    is accounted to the master, which drives the link.
    """
    try:
        rows = _TASK_GRAPHS[function_id]()
    except KeyError:
        raise KeyError(f"no task graph defined for {function_id!r}") from None

    t_word = model.cost("fsl_word_transfer")
    dur = {
        "add": model.cost("fp2_add_soft"),
        "sadd": model.cost("fp2_add_soft"),
        "mul": model.cost("karatsuba_with_transfer"),
        "red": model.cost("fp2_red"),
    }

    tasks: list[ScheduleTask] = []
    now = 0
    busy = {"MB0": 0, "MB1": 0}
    words_total = 0
    for row in rows:
        if row[0] == "xfer":
            _, sent, received = row
            words = sent + received
            words_total += words
            end = now + words * t_word
            tasks.append(ScheduleTask("FSL", f"transfer[{sent}t+{received}r]", now, end))
            busy["MB0"] += words * t_word
            now = end
        else:
            _, master, slave = row
            m_end = now
            for name in master:
                tasks.append(ScheduleTask("MB0", name, m_end, m_end + dur[name]))
                busy["MB0"] += dur[name]
                m_end += dur[name]
            s_end = now
            for name in slave:
                tasks.append(ScheduleTask("MB1", name, s_end, s_end + dur[name]))
                busy["MB1"] += dur[name]
                s_end += dur[name]
            now = max(m_end, s_end)

    critical = now
    util = {proc: 100.0 * b / critical for proc, b in busy.items()}
    return ScheduleTrace(
        function_id=function_id,
        tasks=tasks,
        transfer_words=words_total,
        critical_path=critical,
        busy=busy,
        utilization=util,
    )


# ---------------------------------------------------------------------------
# Area/efficiency model
# ---------------------------------------------------------------------------

#: one DSP block or one BRAM occupies the area of this many slices in the
#: efficiency metric (calibrated so the metric reproduces the published
#: figures of all reference designs; see notes in the repository docs)
SLICE_EQUIV_PER_BLOCK = 16

#: published per-design area (slices, dsp, bram), time in ms, and efficiency
DESIGN_REFERENCE = {
    "sw": {"slices": 1063, "dsp": 3, "bram": 32, "time_ms": 2099.56, "efficiency": 0.07,
           "cycles": 262_445_486},
    "mmm": {"slices": 1558, "dsp": 11, "bram": 35, "time_ms": 265.51, "efficiency": 0.42,
            "cycles": 26_551_593},
    "karatsuba": {"slices": 2045, "dsp": 17, "bram": 38, "time_ms": 112.28, "efficiency": 0.77,
                  "cycles": 1_122_817},
    "2mb": {"slices": 3108, "dsp": 20, "bram": 42, "time_ms": 26.4, "efficiency": 2.35,
            "cycles": 264_668},
}

DATAPATH_BITS = 256


def efficiency(
    datapath_bits: int,
    slices: int,
    dsp: int,
    bram: int,
    time_s: float,
    slice_equiv: int = SLICE_EQUIV_PER_BLOCK,
) -> float:
    """datapath / (equivalent slices x execution time)."""
    if min(datapath_bits, slices, slice_equiv) <= 0 or dsp < 0 or bram < 0 or time_s <= 0:
        raise ValueError("efficiency inputs must be positive")
    equivalent_slices = slices + (dsp + bram) * slice_equiv
    return datapath_bits / (equivalent_slices * time_s)
