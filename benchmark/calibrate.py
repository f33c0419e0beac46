"""A fixed calibration pass, timed next to every workload pass.

On a shared host the speed of one and the same single-thread pass drifts by
10-30 % over minutes, and every kind of work slows together.  This pass runs
no interpcomp code, only a fixed mix of interpreter work, 2048-point FFTs
and 512x512 FFTs, so its duration measures how fast the machine runs at that
moment.  ``run.py`` times it before and after every pass and reports the
pass time scaled by ``REFERENCE_S`` over the mean of those two durations:
seconds at the speed at which the calibration pass takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median duration of one calibration pass on the reference machine
REFERENCE_S = 0.045


class Calibrator:
    """Times the calibration pass around each timed interval of a run.

    The first calibration is made here; each ``speed()`` makes the next, so
    every interval lies between two of them.
    """

    def __init__(self, reps=1):
        rng = np.random.default_rng(20100920)
        self.small = rng.standard_normal(2048)
        self.large = rng.standard_normal((512, 512))
        self.reps = reps
        self.times = [self._time()]

    def _once(self):
        x = self.small
        for _ in range(200):
            x = np.fft.irfft(np.fft.rfft(x), n=x.size) * 0.5 + np.sin(x)
        big = self.large
        for _ in range(3):
            big = np.fft.irfft2(np.fft.rfft2(big), s=big.shape)
        total = 0
        for i in range(80000):
            total += i * i
        return float(x[0] + big[0, 0]) + total

    def _time(self):
        """Seconds of one calibration pass: the median of ``reps`` repeats."""
        times = []
        for _ in range(self.reps):
            t = perf_counter()
            self._once()
            times.append(perf_counter() - t)
        return statistics.median(times)

    def speed(self):
        """REFERENCE_S over the mean of this calibration and the one before.

        Call it right after a timed interval; multiplying the interval's
        seconds by the result scales them to the reference speed.
        """
        self.times.append(self._time())
        return 2 * REFERENCE_S / (self.times[-2] + self.times[-1])
