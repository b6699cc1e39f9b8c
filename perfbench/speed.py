"""Call times that hold still on a shared machine.

Two things move a call's wall time on a shared virtual machine without any
change to the program:

- Steal: the host takes the virtual CPU away, for a tenth of a second or
  more at a time. A dense-hub `forward` call that usually takes 0.3 s then
  takes 0.6 s of wall time, with the same CPU time. So calls are timed in
  process CPU time (`time.process_time`), which does not count stolen time.
- Speed: the same code runs up to twice as fast at one moment as at
  another, switching every few seconds (a fixed loop timed back to back reads
  18 ms, then 33 ms, then 19 ms, in CPU time as in wall time).

For the second, every timed call runs under a sampler. A fixed probe runs
once before the call, once after it, and every SAMPLE_INTERVAL_S of wall
time during it, from a SIGALRM handler in the same thread. (A CPU-time
timer would do as well, but while one is armed Linux advances the process
CPU clock only at scheduler ticks, 4 ms apart.) Each sample
runs the probe twice and times the second run: the first finds its code and
data evicted by the program's work, and takes up to twice as long depending
on what the program did, while the second finds them warm. The trimmed mean
of the timed probe runs over the call, divided by PROBE_NOMINAL_S, is the
machine's slowdown during that call. A call's normalised time is its CPU
time, probes taken out, divided by that slowdown: the time it would take on
a machine on which the probe takes PROBE_NOMINAL_S and nothing is stolen.

The probe is a short mix of what the program spends its time on: Python
bytecode and small numpy operations. It works on a few preallocated arrays
and creates no object the cyclic GC tracks, so the program's heap does not
change its time and it does not move the program's GC. A signal that arrives
during a long C call is handled when the call returns; a call shorter than
the interval is judged by the probes before and after it.

Process CPU time counts every thread of the process, and no child process.
The benchmark runs the program in-process with one BLAS thread (see run.py),
so for it CPU time is the time a user waits, less what the host stole.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

clock = time.process_time
SAMPLE_INTERVAL_S = 0.02
# About the probe's median time on the 2-vCPU Xeon the benchmark was tuned on.
PROBE_NOMINAL_S = 50e-6

_A = np.random.default_rng(1).standard_normal(16)
_B = np.random.default_rng(2).standard_normal(16)
_C = np.zeros(16)


def probe() -> None:
    """Fixed work: an integer loop and twelve small in-place numpy updates."""
    acc = 0
    for i in range(300):
        acc += i * i % 7
    for k in range(12):
        np.multiply(_A, _B[k] - _A[k], out=_C)
        np.add(_C, _A, out=_C)


@dataclass
class Timing:
    """One timed call: CPU seconds without the probes, and the slowdown."""

    seconds: float = 0.0
    slowdown: float = 1.0

    @property
    def normalised(self) -> float:
        return self.seconds / self.slowdown


def trimmed_mean(values: list) -> float:
    """Mean of the middle 80%: a probe interrupted mid-run reads many times
    its usual time, and one such sample would move a plain mean."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


class Sampler:
    def __init__(self):
        # Parallel lists of floats, so recording allocates nothing GC-tracked:
        # when each sample began, how long it took, and its timed probe run.
        self.starts: list = []
        self.spent: list = []
        self.durations: list = []
        # Installed for good: the timer is armed only inside `timed`, and a
        # signal still pending when it is disarmed must find this handler.
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        start = clock()
        probe()
        warm = clock()
        probe()
        end = clock()
        self.starts.append(start)
        self.spent.append(end - start)
        self.durations.append(end - warm)

    @contextmanager
    def timed(self):
        """Time the body; the yielded Timing is filled in on exit. Not nested."""
        timing = Timing()
        first = len(self.durations)
        self._sample()
        start = clock()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = clock()
            # A signal handled after `end` took none of the call's time.
            inside = sum(
                d for s, d in zip(self.starts[first + 1 :], self.spent[first + 1 :]) if s < end
            )
            self._sample()
            timing.seconds = end - start - inside
            timing.slowdown = trimmed_mean(self.durations[first:]) / PROBE_NOMINAL_S

    def median_probe(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


@contextmanager
def cpu_timed():
    """Like Sampler.timed, without probes: plain CPU time, slowdown 1."""
    timing = Timing()
    start = clock()
    try:
        yield timing
    finally:
        timing.seconds = clock() - start
