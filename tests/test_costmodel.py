"""Counting contexts, cycle prediction, symbolic rows, schedule simulation,
and the efficiency metric."""

import json
import sys
import threading

import pytest

from bnpair import costmodel, fp, tower
from bnpair.costmodel import (
    CycleModel,
    DESIGN_REFERENCE,
    DUAL_DESIGN,
    OpCounts,
    SINGLE_DESIGN,
    compose_symbolic,
    counting,
    efficiency,
    predict_cycles,
    simulate_dual_schedule,
    tick,
    with_counting,
)


class TestCounting:
    def test_empty_scope(self):
        _, counts = with_counting(lambda: None)
        assert counts.as_dict() == {}

    def test_ticks_only_inside_scope(self):
        tick("m")  # no active scope: must be a no-op
        with counting() as ctx:
            tick("m")
        tick("m")
        assert ctx.counts.m == 1

    def test_nested_scopes_compose_additively(self):
        with counting() as outer:
            tick("a", 2)
            with counting() as inner:
                tick("a", 3)
        assert inner.counts.a == 3
        assert outer.counts.a == 5

    def test_fp2_mul_example(self, paper, rng):
        a = tower.fp2_from_ints(rng.randrange(paper.p), rng.randrange(paper.p), paper)
        _, counts = with_counting(lambda: tower.fp2_mul(a, a, paper))
        assert (counts.m, counts.m_beta, counts.a) == (3, 1, 5)

    def test_direct_counters_exclude_nested(self, paper, rng):
        from bnpair import curve

        g1 = curve.g1_generator(paper)
        T = curve.g2_scalar_mul(curve.g2_generator(paper), 3, paper)
        _, counts = with_counting(lambda: curve.doubling_step(T, g1, paper))
        assert counts.direct_m == 4  # the four line-coefficient scalings
        assert counts.m > counts.direct_m

    def test_opcounts_addition(self):
        a = OpCounts({"m": 2})
        b = OpCounts({"m": 3, "a": 1})
        assert (a + b).as_dict() == {"a": 1, "m": 5}


def _rand_fp12(paper, rng):
    return tuple(
        tuple(
            tower.fp2_from_ints(rng.randrange(paper.p), rng.randrange(paper.p), paper)
            for _ in range(3)
        )
        for _ in range(2)
    )


def _run_threads(targets, timeout=60.0):
    """Start one thread per target with a short switch interval, so that the
    threads interleave inside single field operations, and join them all."""
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=t) for t in targets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)


class TestCountingThreads:
    """Scopes are per thread; the open-scope count only decides whether a
    tick looks for one."""

    @staticmethod
    def _work(a, b, paper):
        for _ in range(3):
            tower.fp12_mul(a, b, paper)

    def test_concurrent_scopes_count_exactly(self, paper, rng):
        a, b = _rand_fp12(paper, rng), _rand_fp12(paper, rng)
        _, expected = with_counting(lambda: self._work(a, b, paper))

        start = threading.Barrier(4)
        results = []

        def worker():
            start.wait()
            with counting() as ctx:
                self._work(a, b, paper)
            results.append(ctx.counts)

        _run_threads([worker] * 4)
        assert len(results) == 4
        assert all(counts == expected for counts in results)

    def test_uncounted_thread_adds_nothing(self, paper, rng):
        a, b = _rand_fp12(paper, rng), _rand_fp12(paper, rng)
        _, expected = with_counting(lambda: self._work(a, b, paper))

        running, done = threading.Event(), threading.Event()
        uncounted_calls = []
        results = []

        def uncounted():
            while not done.is_set():
                tower.fp12_mul(a, b, paper)
                uncounted_calls.append(1)
                running.set()

        def counted():
            running.wait(30)
            try:
                with counting() as ctx:
                    self._work(a, b, paper)
                results.append(ctx.counts)
            finally:
                done.set()

        _run_threads([uncounted, counted])
        assert uncounted_calls
        assert results == [expected]

    def test_tick_is_noop_after_scope_exits_by_exception(self):
        with pytest.raises(RuntimeError):
            with counting() as ctx:
                tick("m")
                raise RuntimeError("leave the scope")
        assert costmodel._open_scopes == 0
        tick("m")
        assert ctx.counts.as_dict() == {"m": 1, "direct_m": 1}

    def test_fp2_depth_restored_after_exception(self, paper):
        with counting() as ctx:
            with pytest.raises(TypeError):
                # fails inside the F_p2 operation, after its first F_p tick
                tower.fp2_mul((None, 0), (1, 1), paper)
            assert ctx.fp2_depth == 0
            fp.mont_mul(1, 1, paper.modulus)
        assert ctx.counts.direct_m == 1
        assert ctx.counts.m == 2


class TestCycleModel:
    def test_defaults_valid(self):
        model = CycleModel()
        assert model.cost("karatsuba_with_transfer") == 1240
        assert model.cost("fp2_mul_soft") == 53942
        assert model.cost("fp_mul_soft") == 12968
        assert model.cost("fp_mul_mmm_ip") == 475

    def test_missing_cost_errors(self):
        model = CycleModel()
        with pytest.raises(KeyError):
            model.cost("warp_drive")

    def test_incomplete_model_rejected(self):
        with pytest.raises(ValueError):
            CycleModel(constants={"addsub_ip": 10})

    def test_nonpositive_cost_rejected(self):
        bad = dict(CycleModel().constants)
        bad["fp2_red"] = 0
        with pytest.raises(ValueError):
            CycleModel(constants=bad)

    def test_json_roundtrip(self):
        model = CycleModel()
        again = CycleModel.from_json(model.to_json())
        assert again.constants == model.constants

    def test_json_schema_checked(self):
        doc = json.loads(CycleModel().to_json())
        doc["schema_version"] = 0
        with pytest.raises(ValueError):
            CycleModel.from_json(json.dumps(doc))

    def test_soft_fp2_mul_identity(self):
        # 53942 = 3 m + m_beta + 5 a: the software F_p2 multiply decomposes
        # into its base-field schedule under the same constants
        c = CycleModel().constants
        assert 3 * c["fp_mul_soft"] + c["fp_mul_beta_soft"] + 5 * c["fp_add_soft"] == c[
            "fp2_mul_soft"
        ]


class TestPredictCycles:
    def test_single_karatsuba_mul(self):
        counts = OpCounts({"m2": 1})
        assert predict_cycles(counts, CycleModel(), "karatsuba") == 1240

    def test_empty_counts(self):
        for profile in costmodel.PROFILES:
            assert predict_cycles(OpCounts(), CycleModel(), profile) == 0

    def test_two_adds_cost_more_than_one_karatsuba(self):
        counts = OpCounts({"a2": 2})
        assert predict_cycles(counts, CycleModel(), "karatsuba") == 1272 >= 1240

    def test_linearity(self, paper, rng):
        a = OpCounts({"m2": 3, "a2": 7, "m_xi": 1})
        b = OpCounts({"m2": 1, "s2": 2, "a2": 5})
        model = CycleModel()
        for profile in ("sw", "mmm", "karatsuba"):
            assert predict_cycles(a + b, model, profile) == predict_cycles(
                a, model, profile
            ) + predict_cycles(b, model, profile)

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            predict_cycles(OpCounts(), CycleModel(), "gpu")


class TestSymbolic:
    def test_fp6_mul_single(self):
        sym = compose_symbolic("fp6_mul", SINGLE_DESIGN)
        assert sym.render() == "6 Karatsuba + 15 add soft F_p2 + 2 red F_p2"

    def test_fp6_mul_dual(self):
        sym = compose_symbolic("fp6_mul", DUAL_DESIGN)
        assert sym.render() == "Karatsuba + 14 add soft F_p2 + 21 transfert FSL"

    def test_unknown_inputs(self):
        with pytest.raises(KeyError):
            compose_symbolic("fp6_mul", "3Mb/KARATSUBA")
        with pytest.raises(KeyError):
            compose_symbolic("easy_part", SINGLE_DESIGN)

    def test_single_design_matches_counted_run(self, paper, rng):
        """The symbolic single-processor row evaluates close to the cycle
        prediction of an actually counted run (documented tolerance: the
        published rows differ slightly from the implemented schedules)."""
        a = tuple(
            tower.fp2_from_ints(rng.randrange(paper.p), rng.randrange(paper.p), paper)
            for _ in range(3)
        )
        _, counts = with_counting(lambda: tower.fp6_mul(a, a, paper))
        model = CycleModel()
        predicted = predict_cycles(counts, model, "karatsuba")
        symbolic = compose_symbolic("fp6_mul", SINGLE_DESIGN).evaluate(model)
        assert abs(predicted - symbolic) / symbolic < 0.10


class TestSchedule:
    def test_fp6_mul_task_counts(self):
        trace = simulate_dual_schedule("fp6_mul", CycleModel())
        slave_muls = [t for t in trace.tasks if t.proc == "MB1" and t.name == "mul"]
        master_adds = [t for t in trace.tasks if t.proc == "MB0" and t.name == "add"]
        assert len(slave_muls) == 6
        assert len(master_adds) == 14
        assert trace.transfer_words == 21

    def test_no_overlap_per_processor(self):
        trace = simulate_dual_schedule("fp6_mul", CycleModel())
        for proc in ("MB0", "MB1"):
            spans = sorted(
                (t.start, t.end) for t in trace.tasks if t.proc == proc
            )
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2

    def test_critical_path_bounds_busy(self):
        trace = simulate_dual_schedule("fp6_mul", CycleModel())
        assert trace.critical_path >= max(trace.busy.values())
        assert all(0 < u <= 100 for u in trace.utilization.values())

    def test_unknown_function(self):
        with pytest.raises(KeyError):
            simulate_dual_schedule("easy_part", CycleModel())

    def test_other_functions_have_graphs(self):
        for fn in ("fp12_mul", "cyclotomic_sqr", "sparse_mul", "doubling_step"):
            trace = simulate_dual_schedule(fn, CycleModel())
            dual = costmodel._SYMBOLIC_DUAL[fn]
            master_adds = [t for t in trace.tasks if t.proc == "MB0" and t.name == "add"]
            assert len(master_adds) == dual["add_soft_fp2"]
            assert trace.transfer_words == dual["transfert_fsl"]


class TestEfficiency:
    def test_reference_rows(self):
        for ref in DESIGN_REFERENCE.values():
            got = efficiency(
                costmodel.DATAPATH_BITS,
                ref["slices"],
                ref["dsp"],
                ref["bram"],
                ref["time_ms"] / 1e3,
            )
            assert abs(got - ref["efficiency"]) <= 0.05

    def test_linearity_in_time(self):
        base = efficiency(256, 1000, 10, 10, 0.1)
        assert efficiency(256, 1000, 10, 10, 0.2) == pytest.approx(base / 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            efficiency(256, 1000, 10, 10, 0.0)
        with pytest.raises(ValueError):
            efficiency(0, 1000, 10, 10, 0.1)
