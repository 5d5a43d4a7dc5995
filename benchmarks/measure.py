"""Statistics, span tracing and the host reference loop.

This module does not import bnpair, so the host reference loop and the
arithmetic the benchmark applies to its own samples can be tested and timed
without the program under test.
"""

from __future__ import annotations

import functools
import statistics
import time

#: a tail percentile must leave at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_MIN_BEYOND`` samples
    beyond it: ``(value, percentile)``.

    With n sorted samples that is the sample at 0-based rank n - 11, which
    has exactly ten larger ranks above it; its percentile is 100 (n - 10) / n.
    """
    n = len(samples)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_MIN_BEYOND} samples, got {n}")
    ordered = sorted(samples)
    return ordered[n - TAIL_MIN_BEYOND - 1], 100.0 * (n - TAIL_MIN_BEYOND) / n


def host_ref_ms(loops: int = 5) -> float:
    """Median wall time of a fixed pure-Python integer loop, in ms.

    It exercises the same kind of interpreter work as the program (big-int
    multiply, reduce, branch) but none of its code, so a change here between
    runs is host drift, not a program change.
    """
    p = (1 << 255) - 19
    times = []
    for _ in range(loops):
        t0 = time.perf_counter()
        x = 3
        for i in range(20_000):
            x = x * x % p
            if x & 1:
                x += i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """Records spans ``[name, start, end, parent_index]`` in memory.

    ``wrap`` replaces a module attribute with a recording wrapper; every
    call site inside bnpair looks its callees up through module globals, so
    the wrapper sees each call.  ``restore`` puts the originals back.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus its children's durations.  The
    spans come from one call stack, so the children of a span never overlap.
    """
    totals: dict[str, float] = {}
    for name, start, end, parent in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
        if parent is not None:
            parent_name = spans[parent][0]
            totals[parent_name] = totals.get(parent_name, 0.0) - (end - start)
    return totals
