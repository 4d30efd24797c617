"""The machine's speed through a pass, and timings in reference seconds.

On a shared machine the speed of one core drifts by 10-35% over seconds
to minutes, and swings within a fraction of a second, while the work a
pass does stays identical.  So while a pass runs, a timer signal every
INTERVAL_S interrupts it to time one short burst of a fixed reference
loop.  From those samples `ReferenceClock` converts any interval of the
pass into reference seconds: the seconds the work would take on a
machine where one burst takes REFERENCE_BURST_S, with the sampler's own
time left out.  The loop is the benchmark's own code, so a change to
stochopt moves the reference timings and never the reference.

The loop is plain interpreted Python, like most of stochopt's inner
loops: list indexing and swaps, float arithmetic, a function call.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_right

# About one burst on a quiet core of a 2-vCPU Xeon VM, so reference seconds
# read close to seconds there.  Fixed: changing it rescales every timing.
REFERENCE_BURST_S = 0.0004
INTERVAL_S = 0.02  # the speed swings within tenths of a second; ~3% of a pass goes to sampling
SMOOTH = 1  # a sample's speed is the mean over it and SMOOTH neighbours each side
_STEPS = 2400
_WARM_STEPS = 600  # untimed, so the interrupted work barely sways the burst


def _step(xs: list, j: int, acc: float) -> float:
    xs[j], xs[63 - j] = xs[63 - j], xs[j]
    return acc + (xs[j] * 0.5 - acc) * 1e-3


_XS = list(range(64))  # made once, so a burst allocates no container for the GC to count


def _loop(steps: int) -> float:
    xs = _XS
    acc = 0.0
    for i in range(steps):
        acc = _step(xs, i & 63, acc)
    return acc


class Sampler:
    """Times a reference burst every INTERVAL_S of wall time, from SIGALRM."""

    def __init__(self):
        self.start = array("d")  # when the handler began
        self.end = array("d")  # when it returned
        self.took = array("d")  # the timed burst alone

    def _tick(self, signum, frame):
        clock = time.perf_counter
        begin = clock()
        _loop(_WARM_STEPS)
        timed = clock()
        _loop(_STEPS)
        done = clock()
        self.start.append(begin)
        self.end.append(done)
        self.took.append(done - timed)

    def run(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def to_dict(self) -> dict:
        return {"start": self.start.tolist(), "end": self.end.tolist(),
                "took": self.took.tolist()}


class ReferenceClock:
    """perf_counter readings of one pass -> reference seconds since its first sample.

    Between the end of sample j and the start of sample j+1 the clock runs
    at REFERENCE_BURST_S / (mean burst of samples j-SMOOTH .. j+SMOOTH); it
    stands still while the sampler runs.
    """

    def __init__(self, samples: dict):
        start, end, took = samples["start"], samples["end"], samples["took"]
        if not took:
            raise ValueError("no speed samples")
        n = len(took)
        self.start, self.end = start, end
        self.rate = []
        for j in range(n):
            window = took[max(0, j - SMOOTH):j + SMOOTH + 1]
            self.rate.append(REFERENCE_BURST_S * len(window) / sum(window))
        self.at_end = [0.0] * n  # reference reading when sample j returns
        for j in range(1, n):
            self.at_end[j] = self.at_end[j - 1] + (start[j] - end[j - 1]) * self.rate[j - 1]

    def __call__(self, t: float) -> float:
        j = bisect_right(self.start, t) - 1
        if j < 0:
            return (t - self.start[0]) * self.rate[0]
        if t < self.end[j]:
            return self.at_end[j]
        return self.at_end[j] + (t - self.end[j]) * self.rate[j]

    def seconds(self, begin: float, end: float) -> float:
        return self(end) - self(begin)
