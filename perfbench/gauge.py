"""Machine-speed gauge: a fixed kernel timed while the benchmark's operations run.

The benchmark runs on shared virtual machines whose speed changes by 30 %
and more, in phases that last from seconds to minutes, with every kernel
slowing at once.  No statistic over one run removes a phase that lasts
longer than the run, and a single long operation averages over whatever
phases it meets.  So the benchmark samples the machine's speed every
1.5 s *during* every operation (Sampler below) and reports each stretch
of the operation's time divided by the speed factor measured around it:
the time the operation would have taken at the reference speed.

The gauge is fixed code of the benchmark and never calls the package, so a
change to the package moves the operation times and leaves the gauge where
it was.  Its three parts stand for the kinds of work the package does:
stacked small complex matrix products (the oracle's sector kernel), dense
Hermitian eigendecompositions (the full-space integrator) and interpreted
Python (the per-step loops).  Its arrays are small: it holds about 5 MB
and allocates about 5 MB more while it runs, which adds to the peak
resident set of the operation it interrupts.  The speed factor is the geometric
mean of each part's time (median of three calls) over its reference
time; it is 1.0 at the reference speed and 1.3 on a machine running 30 %
slow.  One sample takes about 0.12 s, so the gauge adds about 8 % to the
elapsed time of an operation.

The reference times were measured on a 2-vCPU Xeon virtual machine.  They
set the scale of the corrected times only; two runs are comparable
whatever the constants are, provided both used the same ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Seconds of one call of each part on the reference machine in its fast
# phase, so that corrected times read about as the fast phase's measured ones.
REFERENCE_S = {"stacked_matmul": 0.0106, "eigh": 0.0086, "python": 0.0066}
REPEATS = 3                              # each part's time is the median of this many

_N = 8                                   # stacked matrix size, as the sector kernel at N = 8
_COUNT = 4096                            # 4 MB per array, so the gauge adds little to peak RSS
_MATMUL_PASSES = 2
_EIGH_SIZE = 80                          # the full-space matrix at N = 20
_EIGH_CALLS = 12
_PY_ITER = 80_000


def _inputs():
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((_COUNT, _N, _N)) + 1j * rng.standard_normal((_COUNT, _N, _N))
    phases = rng.standard_normal(_COUNT)
    h = rng.standard_normal((_EIGH_SIZE, _EIGH_SIZE))
    return mats, phases, h + h.T


_MATS, _PHASES, _HERM = _inputs()


def _stacked_matmul():
    for k in range(_MATMUL_PASSES):
        mats = _MATS * np.exp(1j * k * _PHASES)[:, None, None]
        while mats.shape[0] > 1:
            m = mats.shape[0] // 2
            mats = np.matmul(mats[1:2 * m:2], mats[0:2 * m:2])
            mats /= np.abs(mats).max()


def _eigh():
    for _ in range(_EIGH_CALLS):
        np.linalg.eigh(_HERM)


def _python():
    s = 0
    for i in range(_PY_ITER):
        s += i * i % 7
    return s


PARTS = {"stacked_matmul": _stacked_matmul, "eigh": _eigh, "python": _python}


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def speed_factor() -> float:
    """The machine's slowness now, relative to the reference (1.0 = reference speed)."""
    logs = [math.log(statistics.median(_time(fn) for _ in range(REPEATS)) / REFERENCE_S[name])
            for name, fn in PARTS.items()]
    return math.exp(sum(logs) / len(logs))


class Sampler:
    """Times a block of work in machine-speed-corrected seconds.

    Inside ``with sampler:`` the gauge runs every ``interval`` seconds from
    a SIGALRM handler, in the thread doing the work, and once more at the
    end; it ran once before the block too.  The block's time is cut into
    segments at the samples, the gauge's own time excluded, and each
    segment is divided by the mean of the speed factors at its two ends.
    """

    def __init__(self, interval: float = 1.5):
        self.interval = interval
        self.factor = speed_factor()
        self.factors = [self.factor]
        self.raw_s = self.corrected_s = 0.0

    def __enter__(self):
        self.raw_s = self.corrected_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def _sample(self):
        segment = time.perf_counter() - self._start
        factor = speed_factor()
        self.raw_s += segment
        self.corrected_s += segment / (0.5 * (self.factor + factor))
        self.factor = factor
        self.factors.append(factor)
        self._start = time.perf_counter()

    def _tick(self, signum, frame):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False


class Stopwatch:
    """Sampler's interface without the gauge: corrected time is measured time."""

    def __init__(self):
        self.factors = []
        self.raw_s = self.corrected_s = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_s = self.corrected_s = time.perf_counter() - self._start
        return False
