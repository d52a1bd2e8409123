"""Machine-speed calibration for timings taken on a shared host.

The speed of a shared machine drifts by 10-25% over seconds and minutes,
and all pure-Python code slows or speeds up together. So while the loop
runs, a timer signal interrupts it every PERIOD_S to run a fixed
pure-Python kernel that does not use kpcover: a greedy max-degree vertex
cover of one fixed random graph. The kernel runs inside long instances as
well as between them. An instance's time, less the kernel runs inside it,
is scaled by REFERENCE_KERNEL_S / (the median kernel time inside and
around it). The result is in reference seconds: the time the instance
would take on a machine where the kernel takes exactly REFERENCE_KERNEL_S.
A change to kpcover moves it; a change in the speed of the machine mostly
does not, because it moves the kernel the same way.

Process start-up drifts with the host's operating system rather than with
Python code, so set-up time has its own yardstick: a fresh interpreter that
imports a fixed set of standard-library modules (REFERENCE_LAUNCH_CODE),
launched right before each timed one and scaled to REFERENCE_LAUNCH_S.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from contextlib import contextmanager

# about the kernel's time, interleaved this way, on the 2.1 GHz Xeon vCPU,
# Python 3.11, where the benchmark was written; it only sets the scale
REFERENCE_KERNEL_S = 0.0004
REFERENCE_LAUNCH_S = 0.09
REFERENCE_LAUNCH_CODE = (
    "import decimal, email.message, http.client, json, sys, xml.dom.minidom; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()")
PERIOD_S = 0.004  # one kernel run per period: about a tenth of the time
WINDOW = 12       # samples on each side of an interval that also set its speed
WARM_UP = 30      # kernel runs before the first sample


def fixed_graph(n: int = 60, p: float = 0.3, seed: int = 7) -> dict:
    rng = random.Random(seed)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def kernel(adj: dict) -> int:
    """Size of a greedy max-degree vertex cover of adj; adj is not changed."""
    degree = {v: len(nb) for v, nb in adj.items()}
    live = {v: set(nb) for v, nb in adj.items()}
    size = 0
    while True:
        v = max(degree, key=degree.get)
        if degree[v] == 0:
            return size
        size += 1
        for u in live.pop(v):
            live[u].discard(v)
            degree[u] -= 1
        del degree[v]


class Calibrator:
    """Kernel samples taken on a timer, with their start times."""

    def __init__(self) -> None:
        self.graph = fixed_graph()
        for _ in range(WARM_UP):
            kernel(self.graph)
        self.starts: list[float] = []
        self.times: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel(self.graph)
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    @contextmanager
    def ticking(self):
        """Sample the kernel every PERIOD_S while the block runs. Python runs
        the handler between two bytecodes of the main thread, so a sample
        lies wholly inside or wholly outside any timed interval."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _inside(self, t0: float, t1: float) -> tuple[int, int]:
        return (bisect.bisect_left(self.starts, t0),
                bisect.bisect_left(self.starts, t1))

    def own(self, t0: float, t1: float) -> float:
        """Seconds of the interval [t0, t1] not spent in the kernel."""
        i0, i1 = self._inside(t0, t1)
        return t1 - t0 - sum(self.times[i0:i1])

    def scale(self, t0: float, t1: float) -> float:
        """own(t0, t1) in reference seconds, by the kernel samples inside the
        interval and the WINDOW on each side of it."""
        i0, i1 = self._inside(t0, t1)
        near = self.times[max(0, i0 - WINDOW):i1 + WINDOW]
        return self.own(t0, t1) * REFERENCE_KERNEL_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.times)
