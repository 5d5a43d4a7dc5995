#!/usr/bin/env python3
"""The bnpair benchmark: one closed-loop client, one workload per run.

    python3 benchmarks/run.py --workload ate_validated --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the separate
traced run that prints the per-layer metrics.  The last line of standard
output is one JSON object; every output is checked and the exit code is 1 if
any check failed.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: set-up samples per run, each from a fresh child process
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 150
#: prints the wall time of import + paper_params() and of paper_params() alone
SETUP_CODE = """\
import time
t0 = time.perf_counter()
from bnpair import params
t1 = time.perf_counter()
params.paper_params()
t2 = time.perf_counter()
print(t2 - t0, t2 - t1)
"""

#: the workloads in workloads.WORKLOADS, named here so that a wrong name is
#: refused before the set-up is paid for
WORKLOADS = ("ate_validated", "vector_gen", "cost_counted")

#: the public entry points the traced run wraps, by module
TRACED = {
    "pairing": ("validate_g1", "validate_g2", "miller_loop", "easy_part", "hard_part"),
    "curve": ("g1_scalar_mul", "g2_scalar_mul", "doubling_step", "addition_step"),
    "tower": ("sparse_mul", "fp12_sqr", "cyclotomic_sqr", "fp12_mul", "fp12_pow"),
    "costmodel": ("predict_cycles", "simulate_dual_schedule"),
}
#: spans every workload's requests contain; only these become metrics, so
#: no metric reads 0 on a workload that never calls the function
COMMON_SPANS = (
    "pairing.miller_loop", "pairing.easy_part", "pairing.hard_part",
    "curve.doubling_step", "curve.addition_step",
    "tower.sparse_mul", "tower.fp12_sqr", "tower.cyclotomic_sqr", "tower.fp12_mul",
)


@dataclass
class Run:
    """What one closed-loop run recorded."""

    plain: list[float] = field(default_factory=list)  # untraced latencies, s
    traced: list[float] = field(default_factory=list)  # traced latencies, s
    spans: list[list] = field(default_factory=list)  # one span list per traced request
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.plain) + len(self.traced)

    @property
    def busy_s(self) -> float:
        return sum(self.plain) + sum(self.traced)


def run_requests(wl, seconds: float, tracer: measure.Tracer | None = None,
                 between=lambda: None) -> Run:
    """Send requests one at a time until ``seconds`` of request time have
    passed and the tail percentile has enough samples.

    Only ``wl.call`` is timed; making inputs and checking outputs happen
    between requests.  With a tracer, requests alternate between untraced
    and traced, so both see the same host.
    """
    run = Run()
    entry_points = _entry_points() if tracer else []
    while run.busy_s < seconds or len(run.plain) <= measure.TAIL_MIN_BEYOND:
        between()
        req = wl.next_request()
        traced = tracer is not None and len(run.plain) > len(run.traced)
        if traced:
            for module, attr in entry_points:
                tracer.wrap(module, attr)
        t0 = time.perf_counter()
        try:
            value, error = wl.call(req), None
        except Exception as exc:  # a failed request is counted, not fatal
            value, error = None, exc
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.restore()
            run.traced.append(elapsed)
            run.spans.append(tracer.take())
        else:
            run.plain.append(elapsed)
        problem = wl.check(req, value, error)
        if problem:
            run.failures.append(f"request {wl.index - 1} ({req['kind']}): {problem}")
    return run


def _entry_points():
    from bnpair import costmodel, curve, pairing, tower

    mods = {"pairing": pairing, "curve": curve, "tower": tower, "costmodel": costmodel}
    return [(mods[name], attr) for name, attrs in TRACED.items() for attr in attrs]


def end_to_end_metrics(run: Run, setup_samples: list[float]) -> dict[str, tuple[float, str]]:
    tail_s, _ = measure.tail(run.plain)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "req_ms.tail": (tail_s * 1e3, "ms"),
        "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def diagnostics(run: Run) -> dict[str, tuple[float, str]]:
    """Printed and written with every run but not declared: on a host whose
    speed flips between two states, the median and the mean depend on the
    share of the run spent in each (see README.md, Host noise)."""
    lat = run.plain
    return {
        "req_ms.p50": (statistics.median(lat) * 1e3, "ms"),
        "req_per_s": (len(lat) / sum(lat), "1/s"),
        "fail_frac": (len(run.failures) / run.attempted, "ratio"),
    }


def span_metrics(run: Run) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Median self time per request of each span name, in ms: the common
    spans as metrics, and every span seen for the report."""
    per_request = [measure.self_times(spans) for spans in run.spans]
    names = sorted({name for times in per_request for name in times})
    medians = {
        name: statistics.median(times.get(name, 0.0) for times in per_request) * 1e3
        for name in names
    }
    metrics = {f"span.{name}.self_ms": (medians.get(name, 0.0), "ms") for name in COMMON_SPANS}
    return metrics, medians


def per_layer_metrics(ctx, wl, seed: int, seconds: float, sampler: SetupSampler):
    """Run the traced half of the benchmark.  Returns (metrics, run, report)."""
    import layers

    counts = layers.request_counts(wl)
    repeat = layers.request_counts(wl)
    # a cost_counted request is the counted pairing on the same fixed points
    pairing_counts = counts if wl.name == "cost_counted" else layers.pairing_counts(ctx)
    out = layers.micro_benchmarks(ctx, seed, pairing_counts)
    out.update(layers.count_metrics(counts))
    out.update(layers.model_metrics(ctx, pairing_counts))

    run = run_requests(wl, seconds, measure.Tracer(), between=sampler.poll)
    if repeat != counts:
        run.failures.append(f"op counts of one request do not repeat: {counts} vs {repeat}")
    derive_s = [derive for _, derive in sampler.finish()]
    out["params.derive_params_s"] = (statistics.median(derive_s), "s")
    spans, all_spans = span_metrics(run)
    out.update(spans)
    plain_s = statistics.median(run.plain)
    out["trace.overhead"] = (statistics.median(run.traced) / plain_s, "ratio")
    counted = wl.name == "cost_counted"
    out["costmodel.host_explained_share"] = (
        layers.host_explained_share(counts, out, plain_s, counted), "ratio"
    )
    return out, run, {"counts": counts.as_dict(), "span_self_ms": all_spans}


class SetupSampler:
    """Times import + ``paper_params()`` in fresh child processes, one child
    at a time, ``count`` samples in all.

    With ``background`` set, ``poll`` (called between requests) collects a
    finished child and starts the next one, so the children run on the other
    CPU while the requests run and their samples are spread over the run.
    ``finish`` runs whatever is left and returns ``[(setup_s, derive_s)]``.
    """

    def __init__(self, count: int, background: bool, code: str = SETUP_CODE) -> None:
        self.count, self.background, self.code = count, background, code
        self.samples: list[tuple[float, float]] = []
        self.child: subprocess.Popen | None = None

    def poll(self) -> None:
        if self.child is not None and self.child.poll() is not None:
            self._collect()
        if self.background and self.child is None and len(self.samples) < self.count:
            self._start()

    def finish(self) -> list[tuple[float, float]]:
        while self.child is not None or len(self.samples) < self.count:
            if self.child is None:
                self._start()
            self._collect()
        return self.samples

    def close(self) -> None:
        """Stop a child that is still running and wait for it."""
        if self.child is not None:
            self.child.kill()
            self.child.wait()
            self.child = None

    def _start(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.child = subprocess.Popen(
            [sys.executable, "-c", self.code], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    def _collect(self) -> None:
        out, err = self.child.communicate(timeout=SETUP_TIMEOUT_S)
        code, self.child = self.child.returncode, None
        if code != 0:
            raise RuntimeError(f"set-up child exited with {code}: {err.strip()}")
        setup_s, derive_s = (float(v) for v in out.split())
        self.samples.append((setup_s, derive_s))


def setup():
    """Import bnpair and derive the paper parameters."""
    sys.path.insert(0, str(SRC))
    from bnpair import params

    return params.paper_params()


def result(run: Run, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bnpair" / "__init__.py").is_file():
        print(f"error: the bnpair sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # the children need a second CPU to run beside the requests without
    # slowing them; with one CPU they run after the requests
    sampler = SetupSampler(SETUP_SAMPLES, background=len(os.sched_getaffinity(0)) > 1)
    try:
        sampler.poll()
        host_start = measure.host_ref_ms()
        par = setup()

        import workloads

        ctx = workloads.Context(par)
        wl = workloads.WORKLOADS[args.workload](ctx, args.seed)

        report: dict = {}
        if args.trace:
            metrics, run, report = per_layer_metrics(ctx, wl, args.seed, args.seconds, sampler)
        else:
            run = run_requests(wl, args.seconds, between=sampler.poll)
            metrics = end_to_end_metrics(run, [s for s, _ in sampler.finish()])
    finally:
        sampler.close()
    setup_s = [s for s, _ in sampler.samples]
    derive_s = [d for _, d in sampler.samples]
    host_end = measure.host_ref_ms()

    doc = result(run, metrics)
    extra = diagnostics(run)
    _, tail_pct = measure.tail(run.plain)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, "
          f"1 client, {run.attempted} requests, {run.busy_s:.2f} s of request time")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value:.6g} {unit} (diagnostic)")
    print(f"  req_ms.tail is p{tail_pct:.1f} of {len(run.plain)} untraced samples; "
          f"{len(run.failures)} of {run.attempted} requests failed their check")
    print(f"  setup samples (s): {', '.join(f'{s:.3f}' for s in setup_s)}")
    print(f"  host_ref_ms (diagnostic): start {host_start:.3f}, end {host_end:.3f}")
    for name, ms in sorted(report.get("span_self_ms", {}).items()):
        print(f"  span {name} self {ms:.4g} ms per request")
    for line in run.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    detail = dict(doc, diagnostics={k: v for k, (v, _) in extra.items()},
                  workload=args.workload, seed=args.seed, trace=args.trace,
                  python=sys.version.split()[0], host_ref_ms=[host_start, host_end],
                  setup_s=setup_s, derive_params_s=derive_s, latencies_s=run.plain, traced_latencies_s=run.traced,
                  tail_percentile=tail_pct, failures=run.failures, spans=run.spans, **report)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail) + "\n")
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
