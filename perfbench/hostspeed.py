"""Host-speed calibration.

The benchmark host is shared with other machines' work: the same code runs
up to 1.7 times slower in phases that last from a second to minutes, and
process CPU time slows with it, so the slowdown is in every instruction
rather than in time taken away.  A fixed numpy kernel is timed next to
every timed repeat; a repeat's time multiplied by REF_S over the kernel's
time is its time at the reference host speed.  The kernel mixes the two
kinds of work in stochnls: length-64 FFTs driven from a Python loop (the
path march) and a small dense eigensolve (the spectral layer).

REF_S is the kernel's median time on the reference host (2-core Intel
Xeon, Python 3.11, numpy 2.4 with OpenBLAS on one thread), so reported
times read as seconds on that host.
"""

import time

import numpy as np

REF_S = 0.0275

_PHASE = np.exp(0.01j * np.arange(64.0) ** 2)
_MATRIX = np.random.default_rng(0).standard_normal((160, 160))


def kernel_seconds() -> float:
    start = time.perf_counter()
    v = np.exp(1j * np.arange(64.0))
    for _ in range(1000):
        v = np.fft.ifft(_PHASE * np.fft.fft(v)) * _PHASE
    np.linalg.eig(_MATRIX)
    return time.perf_counter() - start
