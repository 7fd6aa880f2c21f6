"""The calibration loop: a fixed pure-Python Fraction loop whose wall time
tracks the machine's speed.  It is the benchmark's own code, so it does the
same work on every commit, and dividing a time by it cancels drift in
machine speed.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.1
# The loop's mean time on the machine the benchmark was defined on (2-vCPU
# Xeon VM, Python 3.11); rescales setup_s to that machine's speed.
REFERENCE_LOOP_S = 0.011


def calibration_loop() -> float:
    """Wall seconds of one run of the loop (about 10 ms)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    x = Fraction(1, 3)
    for i in range(1, 2000):
        acc = acc + x * Fraction(i % 7 + 1, i % 11 + 1)
        if i % 64 == 0:
            acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs the calibration loop on a SAMPLE_EVERY_S wall-clock timer while
    a pass runs, so that it samples the machine's speed over the same time
    as the pass, not only next to it.  The time spent sampling is subtracted
    from the op it interrupted.

    On a shared 2-vCPU VM whose speed drifted by up to 1.7x (Python 3.11),
    twelve runs of one op gave a spread (IQR / median) of 15% in wall time,
    14% divided by loops run just before and after it, and 6-8% divided by
    the loop sampled throughout.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def _sample(self, signum, frame):
        # No collection inside a sample: one of the program's heap would
        # make the sample read the heap's size instead of the machine's speed.
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.samples.append(calibration_loop())
        self.stolen += time.perf_counter() - t0
        if was_enabled:
            gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
