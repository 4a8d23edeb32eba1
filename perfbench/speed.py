"""Machine-speed calibration for the wardrop benchmark.

On a shared machine the speed of the same call drifts by tens of percent,
in phases from a fraction of a second to minutes.  A fixed pure-Python
kernel in the shape of the library's hot paths (bisection through a closure
and through cost-object methods, ``sum`` over a generator, ``math`` calls)
is timed every CALIB_EVERY_S of wall time, also in the middle of a library
call, and each call's time is scaled by CALIB_NOMINAL_S over the mean kernel
time around and during it.  CALIB_NOMINAL_S is a round figure near the
kernel's typical time on the reference machine, so a scaled time reads as
seconds there.  The kernel is the benchmark's own code: a change to the
library moves the scaled times, not the kernel.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

CALIB_EVERY_S = 0.02
CALIB_NOMINAL_S = 1.0e-3


def _kernel_root(k: int) -> float:
    f = lambda x: x * x * x + k * x - 7.0 * k  # noqa: E731 - a closure call per step, as in the library
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo


class _KernelCost:
    """a + b x^1.5 with the argument check and bisection inverse the
    library's cost classes have."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b

    def _check(self, x: float) -> float:
        if math.isnan(x) or x < 0.0:
            raise ValueError(x)
        return x

    def eval(self, x: float) -> float:
        return self.a + self.b * max(self._check(x), 0.0) ** 1.5

    def inverse(self, y: float) -> float:
        lo, hi = 0.0, 1e3
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if self.eval(mid) < y:
                lo = mid
            else:
                hi = mid
        return lo


_KERNEL_COSTS = [_KernelCost(1.0 + i, 0.5 + i) for i in range(4)]


def calibration_s() -> float:
    """Seconds of one run of the calibration kernel: closure bisection,
    then method-call bisection summed over a generator, then integer and
    dict work."""
    start = time.perf_counter()
    for k in range(1, 40):
        _kernel_root(k)
    for level in (10.0, 20.0, 40.0, 80.0):
        sum(c.inverse(level) for c in _KERNEL_COSTS)
    table = {}
    for i in range(100):
        table[i % 13] = math.factorial(i % 20) * 1.0
    return time.perf_counter() - start


class SpeedSampler:
    """Times the calibration kernel every CALIB_EVERY_S of wall time.

    The kernel runs in a SIGALRM handler, which Python calls between
    bytecodes of whatever runs, so a library call of a minute is sampled all
    through rather than only at its ends.  The handler's own time is counted
    in ``stolen``, for the caller to take out of the call it interrupted.
    System calls the signal lands in are restarted, not interrupted.
    ``SpeedSampler.active`` is the sampler in use, or None.
    """

    active: SpeedSampler | None = None

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, kernel seconds)
        self.stolen = 0.0

    def _tick(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        kernel = calibration_s()
        end = time.perf_counter()
        self.samples.append((end, kernel))
        self.stolen += end - start

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        self._tick()
        SpeedSampler.active = self
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        SpeedSampler.active = None
        self._tick()

    def scale(self, start: float = -float("inf"), end: float = float("inf")) -> float:
        """CALIB_NOMINAL_S over the mean kernel time of the samples taken
        during [start, end] and the nearest one on each side (by default,
        of every sample)."""
        ends = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(ends, start) - 1, 0)
        hi = min(bisect.bisect_right(ends, end) + 1, len(ends))
        kernels = [k for _, k in self.samples[lo:hi]]
        return CALIB_NOMINAL_S / (sum(kernels) / len(kernels))
