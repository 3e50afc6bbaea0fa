"""The host's current speed, sampled while the timed operations run.

The machine this benchmark was built on shares its cores with other
tenants: the same pure-Python loop takes anywhere from 1x to 2.7x its
best time from one two-second window to the next, in CPU time as well as
wall time, so raw times of identical runs spread by 20% and more.
A fixed calibration unit of the same kind of work as hopfkit's (tuple
keys, dict accumulation, Fraction arithmetic) slows down with it: the
ratio of an operation's time to the unit's time moved by about 2% while
the raw time moved by 80%.

So every operation is timed in CPU seconds of its thread (the process
clock lags while a CPU-time timer is armed) and scaled to reference-speed
seconds: its CPU time times the mean of REFERENCE_S / (unit's CPU time)
over the unit samples taken just before it and, by a CPU-time timer
(SIGPROF), every INTERVAL_S while it runs. The samples' own time is taken
out of the operation's time.
"""

import signal
import time
from fractions import Fraction

# CPU seconds one calibration unit takes at the reference speed: the
# fast regime of the 2-vCPU host the benchmark was built on
REFERENCE_S = 0.0004
INTERVAL_S = 0.05


def calibration_unit():
    acc = {}
    third = Fraction(1, 3)
    for i in range(150):
        word = (i % 7, i % 5, i % 3, i & 1)
        acc[word] = acc.get(word, 0) + third * (i % 4 + 1)
    return acc


class SpeedProbe:
    """Samples of the calibration unit's CPU time, with their own cost."""

    def __init__(self):
        self.samples = []
        self.overhead = 0.0
        self._previous = None

    def sample(self):
        # the first pass refills the caches the interrupted work evicted,
        # so the timed pass sees the core's speed, not a cold start
        calibration_unit()
        start = time.thread_time()
        calibration_unit()
        self.samples.append(time.thread_time() - start)

    def _on_timer(self, _signum, _frame):
        start = time.thread_time()
        self.sample()
        self.overhead += time.thread_time() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def timed(self, call):
        """Run call(); return (result or None, exception or None,
        reference-speed seconds, CPU seconds, wall seconds)."""
        self.sample()
        first, overhead = len(self.samples) - 1, self.overhead
        wall_start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            result, error = call(), None
        except Exception as exc:  # reported by the caller as a failed operation
            result, error = None, exc
        cpu = time.thread_time() - cpu_start - (self.overhead - overhead)
        wall = time.perf_counter() - wall_start - (self.overhead - overhead)
        taken = self.samples[first:]
        scale = sum(REFERENCE_S / s for s in taken) / len(taken)
        return result, error, cpu * scale, cpu, wall
