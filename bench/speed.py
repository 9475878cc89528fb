"""Host-speed probe: a fixed kernel timed from a background thread.

The benchmark runs on shared hosts where the speed of a CPU drifts by
20-30% over seconds and minutes, independently on each CPU, and every code
kind (LAPACK, numpy element-wise, Python bytecode) slows by about the same
factor.  A run is therefore pinned to one CPU, and a thread in the measured
process times this kernel every INTERVAL_S on that CPU.  A measured
interval is scaled to the reference speed by the mean kernel time sampled
within it: a time reported as t seconds is what the interval would have
taken on a CPU where one kernel call takes REFERENCE_S.  The kernel uses no
tpaopt code, so a change to the program cannot move it; the thread costs
the measured code about 1% of its CPU.
"""

from __future__ import annotations

import bisect
import os
import statistics
import sys
import threading
import time

import numpy as np

# Median kernel CPU time on the reference machine: a 2-vCPU x86_64 VM
# (Intel Xeon) with numpy 2.4 on scipy-openblas 0.3, one BLAS thread.
REFERENCE_S = 0.0010
INTERVAL_S = 0.1


def pin_to_one_cpu():
    """Pin this process, and the processes it starts, to one of its CPUs.

    Where the host refuses, the run goes on unpinned, and the probe may then
    sample another CPU than the one a job ran on.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: cannot pin to one CPU ({exc}); times may spread more",
              file=sys.stderr)


class SpeedProbe:
    """Kernel CPU times sampled every INTERVAL_S while the probe is entered."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 64))
        self._x = rng.standard_normal(8192)
        self.times = []     # end of each sample, perf_counter seconds
        self.samples = []   # CPU seconds of one kernel call
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._kernel()  # LAPACK and ufunc set-up are not speed
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _kernel(self):
        np.linalg.svd(self._a, compute_uv=False)
        z = np.exp(1j * self._x) / (self._x + 1j)
        float(np.abs(z).sum())
        acc = 0
        for i in range(2000):
            acc += i * i
        return acc

    def _sample(self):
        # CPU time, not wall time: the measured thread shares the CPU and
        # may run while a sample is taken.
        c0 = time.thread_time()
        self._kernel()
        c1 = time.thread_time()
        self.times.append(time.perf_counter())
        self.samples.append(c1 - c0)

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean sample taken in [t0, t1], or the nearest one.

        Multiply the wall time of [t0, t1] by this to get its reference time.
        """
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return REFERENCE_S / statistics.fmean(self.samples[lo:hi])
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                   key=lambda i: abs(self.times[i] - t0))
        return REFERENCE_S / self.samples[near]
