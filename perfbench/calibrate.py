"""Machine-speed calibration: the reference work every reported time is scaled by.

On a shared host the speed of a core drifts between regimes that last
seconds to tens of seconds, and moves every time in a run by up to a
quarter. Reference work owned by the benchmark, not by the program under
test, slows down with it. So the runner times a reference alongside every
timed block (a round, or a set-up probe) and reports each time as seconds
at reference speed: raw seconds * ref_s / (median reference seconds around
it). Raw seconds are kept in the result file.

Two references, because they track different work. A pure-Python loop
tracks in-process ops; it is timed on a timer signal every SAMPLE_EVERY_S
while they run, so even a multi-second op is calibrated by the regimes it
ran in, and the loop's own time is taken out of the op's. Child processes
track a fresh interpreter that imports numpy far better than they track
the loop; it is timed between rounds.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

_ITERATIONS = 600
_REPEATS = 3
SAMPLE_EVERY_S = 0.2


@dataclass(frozen=True)
class _Point:
    w: float
    b: float


def _move(p: _Point, g: float) -> _Point:
    return _Point(w=p.w - 0.01 * g, b=p.b - 0.01 * g)


def _loop() -> float:
    p = _Point(w=0.3, b=0.3)
    for _ in range(_ITERATIONS):
        p = _move(p, 2.0 * (p.w + p.b - 0.5))
    return p.w


def loop_seconds() -> float:
    """Fastest of a few runs of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def child_seconds() -> float:
    """Spawn-to-exit time of a fresh interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=os.environ, stdout=subprocess.DEVNULL,
                   check=True, timeout=60)
    return time.perf_counter() - start


class Calibration:
    """Reference timings for one timed phase, and the scale factors they give.

    In-process mode times the loop from a SIGALRM handler every
    SAMPLE_EVERY_S while the phase runs; ``clock`` stops while the handler
    runs, so ops timed with it exclude the loop. Child mode spawns the
    reference child whenever ``after_block`` is called. Both modes sample
    on entry, in-process mode also on exit. A block is calibrated by the
    samples taken within ``window_s`` of it.
    """

    def __init__(self, in_process: bool) -> None:
        self.in_process = in_process
        self.ref_s = 0.0005 if in_process else 0.13  # reference host: 2-core Xeon VM, Python 3.11, numpy 2.4
        self.window_s = 0.5 if in_process else 2.0
        self.samples: list[tuple[float, float]] = []
        self._spent = 0.0
        self._previous_handler = None

    def _sample(self) -> None:
        start = time.perf_counter()
        seconds = loop_seconds() if self.in_process else child_seconds()
        end = time.perf_counter()
        self.samples.append((end, seconds))
        self._spent += end - start

    def _handler(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> Calibration:
        self._sample()
        if self.in_process:
            self._previous_handler = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.in_process:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._sample()

    def clock(self) -> float:
        """perf_counter, less the time spent timing the loop in the signal handler."""
        return time.perf_counter() - (self._spent if self.in_process else 0.0)

    def after_block(self) -> None:
        if not self.in_process:
            self._sample()

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Factor taking raw seconds of the block [start, end] to seconds at reference speed."""
        near = [sec for t, sec in self.samples if start - self.window_s <= t <= end + self.window_s]
        if not near:  # a phase shorter than the window: the samples at its edges
            near = [sec for _, sec in self.samples]
        return self.ref_s / statistics.median(near)
