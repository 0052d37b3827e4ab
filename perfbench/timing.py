"""The one clock of the benchmark, its speed probe, and the span tracer.

End-to-end timings and traced spans read the same clock, so the two cannot
drift apart.  A span records a name, start, end, the span that caused it
and the operation it belongs to; spans stay in memory until the run ends.

The machine the benchmark was tuned on (2 shared vCPUs) alternates, every
few seconds to minutes, between full speed and about half speed; the same
pass of work took anywhere from 4.6 s to 8.1 s.  ``SpeedProbe`` measures the
current speed with a fixed pure-Python kernel ten times a second and maps
clock readings to *reference seconds*: time scaled to the speed at which
the kernel takes ``REFERENCE_PROBE_S``.  Reported durations are differences
of reference seconds; raw clock durations are kept in the report.
"""

from __future__ import annotations

import functools
import gzip
import json
import signal
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

import numpy as np

PROBE_PERIOD_S = 0.1
# Probe kernel time at full speed on the tuning machine (p10 of its samples).
REFERENCE_PROBE_S = 180e-6


def clock() -> float:
    """Seconds on the monotonic high-resolution clock."""
    return time.perf_counter()


def _probe_kernel() -> None:
    x, table = 0.5, {}
    for i in range(1500):
        x = (x * 3.9) % 1.0 + 0.01
        table[i & 63] = x


class SpeedProbe:
    """Samples the machine's speed on a timer signal during a block.

    Each sample runs the kernel in the main thread between two bytecodes
    and records its start and cost.  ``reference`` then integrates the
    inverse speed, a median of three neighbouring samples held constant
    between the midpoints of sample times, over the clock readings given,
    leaving out the probe's own time.
    """

    def __init__(self, period: float = PROBE_PERIOD_S):
        self.period = period
        self.starts: list[float] = []
        self.costs: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = clock()
        _probe_kernel()
        self.starts.append(start)
        self.costs.append(clock() - start)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def reference(self, t) -> np.ndarray:
        """Reference seconds at each clock reading ``t``, up to a common offset.

        With fewer than three samples the readings are returned unchanged.
        """
        t = np.asarray(t, dtype=float)
        if len(self.starts) < 3:
            return t.copy()
        tau, cost = np.array(self.starts), np.array(self.costs)
        pace = cost.copy()  # kernel seconds, smoothed: the inverse of speed
        pace[1:-1] = np.median(np.stack([cost[:-2], cost[1:-1], cost[2:]]), axis=0)
        bounds = (tau[1:] + tau[:-1]) / 2          # segment j spans bounds[j-1]..bounds[j]
        seg = np.searchsorted(bounds, t, side="right")
        at_bound = np.concatenate([[0.0], np.cumsum(np.diff(bounds) / pace[1:-1])])
        prev = np.maximum(seg - 1, 0)
        kernels = np.where(seg > 0, at_bound[prev], 0.0) + (t - bounds[prev]) / pace[seg]
        probes = np.concatenate([[0.0], np.cumsum(cost / pace)])
        kernels -= probes[np.searchsorted(tau, t, side="left")]
        return REFERENCE_PROBE_S * kernels


class Tracer:
    """In-memory span recorder.

    Spans are rows ``[id, parent, op, name, start, end, attrs]``; ``parent``
    is -1 for a root span and ``op`` is shared by every span of one
    operation.  ``attrs`` is a small dict or None.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self.op, name, 0.0, 0.0, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, start: float, end: float, attrs) -> None:
        self._stack.pop()
        row = self.spans[sid]
        row[4], row[5], row[6] = start, end, attrs

    @contextmanager
    def operation(self, name: str, **attrs):
        """Root span of one operation; nested spans share its op id."""
        self.op += 1
        sid = self._open(name)
        start = clock()
        try:
            yield
        finally:
            self._close(sid, start, clock(), attrs or None)

    def wrap(self, fn: Callable, name: str, attrs: Callable | None = None) -> Callable:
        """``fn`` with a span around each call.

        ``attrs(args, kwargs, result)`` may return a dict stored on the span;
        it runs after the span's end time is taken.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, start, clock(), None)
                raise
            end = clock()
            self._close(sid, start, end, attrs(args, kwargs, result) if attrs else None)
            return result

        return traced

    def to_reference(self, probe: SpeedProbe) -> None:
        """Replace every span's start and end by reference seconds."""
        if not self.spans:
            return
        starts = probe.reference([row[4] for row in self.spans])
        ends = probe.reference([row[5] for row in self.spans])
        for row, start, end in zip(self.spans, starts.tolist(), ends.tolist()):
            row[4], row[5] = start, end

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part covered by its children."""
        own = [row[5] - row[4] for row in self.spans]
        for row in self.spans:
            if row[1] >= 0:
                own[row[1]] -= row[5] - row[4]
        return own

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer, the span-name prefix before the dot."""
        out: dict[str, float] = defaultdict(float)
        for row, own in zip(self.spans, self.self_times()):
            out[row[3].split(".", 1)[0]] += own
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def read_spans(path) -> list[list]:
    with gzip.open(path, "rt") as fh:
        return [json.loads(line) for line in fh]
