"""Machine-speed calibration for the benchmark's timings.

On a shared host the same op can take 1.6 times as long in one minute as in
the next: the CPU the benchmark runs on alternates between a fast and a slow
state every few milliseconds, and the share of slow time drifts over seconds
and minutes, often for longer than a whole run.  Every op slows by about the
same factor, so the benchmark times a fixed kernel, which does not call
qlevy but does the same kind of work (matrix exponentials and products of
small dense matrices), every CAL_INTERVAL_S between ops, and reports each
op's run as

    measured time * CAL_REF_S / (median kernel time within CAL_WINDOW_S of it)

that is, as the time the op would take on a reference machine on which the
kernel takes CAL_REF_S.  A change to qlevy moves the op's time and not the
kernel's; a slow spell of the machine moves both.
"""

import bisect
import statistics
import time

import numpy as np
from scipy.linalg import expm

CAL_REF_S = 1e-3       # the reference machine runs the kernel in 1 ms
CAL_INTERVAL_S = 0.02  # at least this long between kernel runs while measuring
CAL_WINDOW_S = 1.0     # kernel runs this close to an op's run scale it
CAL_REPEATS = 6
SETUP_SAMPLES = 150    # kernel runs after each of the two phases of set-up

_MATRICES = [0.3 * np.random.default_rng(0).standard_normal((n, n)) for n in (6, 12, 24)]


def kernel():
    """Fixed work of the kind qlevy's ops do, without qlevy: ~1 ms."""
    for _ in range(CAL_REPEATS):
        for m in _MATRICES:
            expm(m)
            m @ m


class Calibration:
    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self, times=1):
        for _ in range(times):
            t0 = time.perf_counter()
            kernel()
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)

    def maybe_sample(self):
        """Run the kernel if CAL_INTERVAL_S has passed since it last ran."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= CAL_INTERVAL_S:
            self.sample()

    def scale(self, start, elapsed):
        """CAL_REF_S over the median kernel time near [start, start + elapsed]."""
        lo = bisect.bisect_left(self.starts, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + elapsed + CAL_WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return CAL_REF_S / statistics.median(near)

    def factor(self):
        """CAL_REF_S over the mean of every kernel time, leaving out the
        tenth at each end.  A mean and not a median: each kernel run is
        either fast or slow, and over the short time set-up is scaled by,
        the mean follows the share of slow runs while the median jumps
        between the two."""
        xs = sorted(self.durations)
        cut = len(xs) // 10
        return CAL_REF_S / statistics.fmean(xs[cut:len(xs) - cut])

    def median_ms(self):
        return 1e3 * statistics.median(self.durations)

