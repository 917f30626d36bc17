"""Timings corrected for the speed the machine ran at while they were taken.

On a shared host the same single-threaded Python code runs up to twice as
fast in one second as in the next, in stretches that last from a second to
minutes, and CPU time moves with wall time.  A raw timing then says more
about the neighbours than about the program.  So a timer signal interrupts
the measured code every `INTERVAL` seconds and times a fixed piece of
reference Python (`reference_work`) in the same thread; the interrupted time
is taken out of the measurement.  A measurement `t` during which the
reference took `c_1 .. c_n` seconds is reported as

    t * mean(REFERENCE_S / c_i)

that is, in seconds at the speed where the reference takes `REFERENCE_S`.
Samples come at even steps of wall time, so the mean weights each stretch
of speed by how long the measured code ran in it.  The raw seconds stay in
the benchmark's informational output.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.02
REFERENCE_S = 0.0005  # the reference on an unloaded core of the machine it was tuned on
REFERENCE_ITERS = 1500


def reference_work():
    """Dict, tuple and integer work like adual's closure loops; about 0.5 ms."""
    seen = {}
    total = 0
    for i in range(REFERENCE_ITERS):
        key = (i % 7, i % 11)
        seen[key] = seen.get(key, 0) + 1
        total += i * 3 % 5
    return total


class Sampler:
    """Takes speed samples on a timer signal while started.

    `samples` holds (wall, cpu) seconds of each reference run; `spent_wall`
    and `spent_cpu` add up the time the samples took, so a measurement can
    leave it out.
    """

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.samples = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def sample(self, *_):
        t0, c0 = time.perf_counter(), time.process_time()
        reference_work()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.samples.append((wall, cpu))
        self.spent_wall += wall
        self.spent_cpu += cpu

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def now_ns(self):
        """A `perf_counter_ns` clock that stands still while samples run."""
        spent = self.spent_wall
        return time.perf_counter_ns() - round(spent * 1e9)

    def speed(self, first=0):
        """Mean (wall, cpu) speed, relative to `REFERENCE_S`, of the samples from index `first`."""
        samples = self.samples[first:]
        if not samples:  # too short for a sample: take one now
            self.sample()
            samples = self.samples[-1:]
        return (
            statistics.fmean(REFERENCE_S / w for w, _ in samples),
            statistics.fmean(REFERENCE_S / max(c, 1e-9) for _, c in samples),
        )


class Stopwatch:
    """Wall and CPU seconds since creation, without the time samples took."""

    def __init__(self, sampler=None):
        self.sampler = sampler
        self.spent = (sampler.spent_wall, sampler.spent_cpu) if sampler else (0.0, 0.0)
        self.t0, self.c0 = time.perf_counter(), time.process_time()

    def read(self):
        wall, cpu = time.perf_counter() - self.t0, time.process_time() - self.c0
        if self.sampler:
            wall -= self.sampler.spent_wall - self.spent[0]
            cpu -= self.sampler.spent_cpu - self.spent[1]
        return wall, cpu
