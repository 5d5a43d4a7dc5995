"""Tests of the benchmark's own arithmetic, on the toy curve.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from bnpair import pairing, params, tower  # noqa: E402

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def ctx():
    return workloads.Context(params.tiny_params())


# -- tail percentile ---------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    value, pct = measure.tail(samples)
    assert value == 90.0 and pct == 90.0
    assert sum(s > value for s in samples) == measure.TAIL_MIN_BEYOND


def test_tail_is_the_highest_such_percentile():
    samples = [float(v) for v in range(37)]
    value, pct = measure.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 27 / 37)
    # the next rank up would leave only nine beyond it
    assert sum(s > value + 1 for s in samples) == 9


def test_tail_needs_more_than_ten_samples():
    assert measure.tail([float(v) for v in range(11)]) == (0.0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        measure.tail([1.0] * 10)


# -- span self time ------------------------------------------------------------


def test_self_time_subtracts_the_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 3.0, 0],
        ["leaf", 1.5, 2.5, 1],
        ["b", 4.0, 6.0, 0],
        ["a", 7.0, 8.0, 0],
    ]
    times = measure.self_times(spans)
    assert times["root"] == pytest.approx(10 - 2 - 2 - 1)
    assert times["a"] == pytest.approx((2 - 1) + 1)
    assert times["leaf"] == pytest.approx(1)
    assert times["b"] == pytest.approx(2)


def test_tracer_records_parents_and_restores():
    mod = types.ModuleType("pkg.toy")

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    tracer = measure.Tracer()
    tracer.wrap(mod, "inner")
    tracer.wrap(mod, "outer")
    assert mod.outer() == 2
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    spans = tracer.take()
    assert [(s[0], s[3]) for s in spans] == [("toy.outer", None), ("toy.inner", 0)]
    assert tracer.take() == []


# -- output checks and fail_frac ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_pass_their_checks_on_the_toy_curve(ctx, name):
    wl = workloads.WORKLOADS[name](ctx, seed=3)
    result = run.run_requests(wl, seconds=0)
    assert result.failures == []
    assert run.result(result, {})["correct"] is True


def test_one_invalid_input_per_block_of_both_kinds(ctx):
    wl = workloads.AteValidated(ctx, seed=5)
    kinds = [wl.next_request()["kind"] for _ in range(8 * workloads.INVALID_EVERY)]
    for block in range(8):
        chunk = kinds[block * workloads.INVALID_EVERY:(block + 1) * workloads.INVALID_EVERY]
        assert sum(k != "valid" for k in chunk) == 1
    assert {"off_twist", "outside_subgroup"} <= set(kinds)


def test_fail_frac_counts_a_deliberately_failing_check(ctx):
    class EveryThirdWrong(workloads.VectorGen):
        def call(self, req):
            P, Q, e = super().call(req)
            if self.index % 3 == 0:
                e = tower.fp12_one(self.ctx.par)
            return P, Q, e

    result = run.run_requests(EveryThirdWrong(ctx, seed=1), seconds=0)
    doc = run.result(result, {})
    assert doc["attempted"] == 11
    assert doc["failed"] == 3  # requests 3, 6 and 9 of 1..11
    assert doc["correct"] is False


def test_an_accepted_invalid_input_is_a_failure(ctx, monkeypatch):
    monkeypatch.setattr(pairing, "validate_g2", lambda Q, par: None)
    result = run.run_requests(workloads.AteValidated(ctx, seed=2), seconds=0)
    invalid = [f for f in result.failures if "was not rejected" in f]
    assert invalid and len(invalid) == len(result.failures)


# -- determinism -------------------------------------------------------------------


def _requests(ctx, name, seed, count=12):
    wl = workloads.WORKLOADS[name](ctx, seed)
    return [wl.next_request() for _ in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(ctx, name):
    assert _requests(ctx, name, 7) == _requests(ctx, name, 7)
    assert _requests(ctx, name, 7) != _requests(ctx, name, 8)


# -- set-up samples ----------------------------------------------------------------


def _fake_sampler(count=2, background=True):
    return run.SetupSampler(count, background, code="print(1.5, 0.5)")


@pytest.mark.parametrize("background", [True, False])
def test_setup_sampler_takes_count_samples_and_leaves_no_child(background):
    sampler = _fake_sampler(count=3, background=background)
    sampler.poll()
    assert (sampler.child is not None) == background
    assert sampler.finish() == [(1.5, 0.5)] * 3
    assert sampler.child is None


def test_setup_sampler_close_stops_a_running_child():
    sampler = run.SetupSampler(1, True, code="import time; time.sleep(60)")
    sampler.poll()
    child = sampler.child
    sampler.close()
    assert child.returncode is not None and sampler.child is None


def test_a_failing_setup_child_is_an_error():
    with pytest.raises(RuntimeError):
        run.SetupSampler(1, False, code="raise SystemExit(3)").finish()


# -- the metric set matches BENCHMARK.json --------------------------------------------


def _declared(section):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def test_workload_names_match_the_declaration():
    declared = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS) == declared


def test_end_to_end_metrics_match_the_declaration(ctx):
    result = run.run_requests(workloads.AteValidated(ctx, seed=1), seconds=0)
    metrics = run.end_to_end_metrics(result, [1.0, 2.0, 3.0])
    assert {k: u for k, (_, u) in metrics.items()} == _declared("end_to_end")
    assert metrics["setup_s"][0] == 2.0
    assert set(run.diagnostics(result)) == {"req_ms.p50", "req_per_s", "fail_frac"}


def test_per_layer_metrics_match_the_declaration_and_counts_repeat(ctx):
    wl = workloads.CostCounted(ctx, seed=1)
    first, result, report = run.per_layer_metrics(ctx, wl, 1, 0, _fake_sampler())
    again, _, _ = run.per_layer_metrics(
        ctx, workloads.CostCounted(ctx, seed=2), 2, 0, _fake_sampler()
    )
    assert result.failures == []
    assert first["params.derive_params_s"] == (0.5, "s")
    assert {k: u for k, (_, u) in first.items()} == _declared("per_layer")
    exact = [k for k in first if k.startswith(("fp.", "tower.")) and first[k][1] == "count"]
    exact += [k for k in first if k.startswith(("costmodel.cycles.", "costmodel.model_err."))]
    assert len(exact) == 17
    assert all(first[k] == again[k] for k in exact)
    assert set(report["span_self_ms"]) >= set(run.COMMON_SPANS) | {
        "costmodel.predict_cycles", "costmodel.simulate_dual_schedule"
    }
