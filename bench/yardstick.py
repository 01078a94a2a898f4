"""A fixed piece of work that measures how fast the host runs right now.

On the 2-core host the bounds were set on, the same task takes up to 30%
longer from one minute to the next (other tenants; steal time stays 0),
which moves every wall time by as much as the changes the benchmark should
detect.  The yardstick runs after every task, and each run's times are
rescaled by NOMINAL_S over the geometric mean of its yardstick times: a
geometric mean, because the host switches between a fast and a slow state
every few seconds and a task averages over both.

Its work is batched LAPACK, FFTs and einsums on tiny arrays, the kind that
carries the program's hot paths.  Interleaved with `cocycles analyze` tasks
on that host, 3-second averages of this work tracked the task times with
correlation 0.97 and log-log slope 0.9, where a pure-Python loop
over-reacted (slope 1.4).  It never calls the program, so no change to the
program can move it.
"""

import math
import time

import numpy as np

# the yardstick's typical time on the host the bounds were set on
NOMINAL_S = 0.010


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
        self._wave = rng.standard_normal((256, 3, 3)) + 0j

    def __call__(self):
        """Run the fixed work once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        a = self._mats
        for _ in range(12):
            q, r = np.linalg.qr(a)
            np.linalg.svd(a, compute_uv=False)
            np.fft.ifft(np.fft.fft(self._wave, axis=0) * 0.5, axis=0)
            np.einsum("bij,bjk->bik", q, r)
        return time.perf_counter() - t0


def speed_factor(samples):
    """NOMINAL_S over the geometric mean of yardstick times: multiply a
    measured time by it to get the time on the nominal host."""
    return NOMINAL_S / math.exp(sum(math.log(s) for s in samples) / len(samples))
