"""In-memory spans and counters for the traced benchmark pass.

A span records a name, its start and end on the `time.perf_counter` clock,
and the index of the span that encloses it (-1 for a root).  Each operation
of a pass is one root span named `bench.op`; the stage calls it makes are its
children, so all spans of one operation share the root's index.  The layer of
a span is the part of its name before the first dot.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import nullcontext
from fractions import Fraction

_NULL = nullcontext()

# Seconds one calibration slice takes when the machine runs at the speed the
# benchmark reports in; see Speed.
CALIBRATION_NOMINAL_S = 5e-4


def calibration_slice() -> float:
    """Seconds taken by a fixed loop of stdlib Fraction arithmetic, the kind
    of pure-Python work mrfw does."""
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 110):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    return time.perf_counter() - t


class Speed:
    """Machine speed, sampled by calibration slices that a timer signal
    runs every PERIOD_S, also in the middle of a long operation.

    On a shared machine the speed of pure-Python code swings by up to 2x
    from one second to the next, so a time is only comparable with another
    once scaled to a common speed.  `scaled(t0, t1)` takes the interval's
    raw time, minus the slices that ran inside it, and multiplies it by
    `factor`: the mean of CALIBRATION_NOMINAL_S / slice over the slices
    that started within MARGIN_S of the interval (the margin doubles until
    it holds three slices).  A mean of speeds integrates a speed that
    changes during the interval.  Call `stop()` before the process ends."""

    PERIOD_S = 0.01
    MARGIN_S = 0.05

    def __init__(self) -> None:
        for _ in range(3):  # let the interpreter specialise the loop
            calibration_slice()
        self.starts: list[float] = []
        self.busy_ends: list[float] = []  # cumulative slice time after each slice
        self.speeds: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        d = calibration_slice()
        self.starts.append(t)
        self.speeds.append(CALIBRATION_NOMINAL_S / d)
        done = self.busy_ends[-1] if self.busy_ends else 0.0
        self.busy_ends.append(done + time.perf_counter() - t)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds spent in slices that started inside [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return (self.busy_ends[hi - 1] if hi else 0.0) - (self.busy_ends[lo - 1] if lo else 0.0)

    def factor(self, t0: float, t1: float) -> float:
        margin = self.MARGIN_S
        while True:
            lo = bisect.bisect_left(self.starts, t0 - margin)
            hi = bisect.bisect_right(self.starts, t1 + margin)
            if hi - lo >= 3 or hi - lo == len(self.starts):
                return statistics.fmean(self.speeds[lo:hi])
            margin *= 2

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw seconds, seconds at the nominal speed) of [t0, t1]."""
        raw = t1 - t0 - self.busy(t0, t1)
        return raw, raw * self.factor(t0, t1)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    traced = True

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class NullTracer:
    """Stand-in for the untraced pass: records nothing."""

    traced = False

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: int = 1) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent])
        tr._open.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._open.pop()
        return False


def summarize(spans: list[list], speed: Speed) -> tuple[dict[str, float], dict[str, float]]:
    """Total seconds per span name, and self seconds per layer, at the
    nominal speed.  Every span is scaled by the factor of its root span, so
    a parent and its children share one factor.

    A span's self time is its duration minus the durations of its direct
    children; children of one span run one after another, so they never
    overlap."""
    dur = [0.0] * len(spans)
    factor = [0.0] * len(spans)
    for i, (_name, start, end, parent) in enumerate(spans):
        factor[i] = speed.factor(start, end) if parent < 0 else factor[parent]
        dur[i] = (end - start - speed.busy(start, end)) * factor[i]
    child_time = [0.0] * len(spans)
    for i, (_name, _start, _end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]
    totals: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    for i, (name, _start, _end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + dur[i]
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur[i] - child_time[i]
    return totals, self_by_layer
