"""Host-speed probe, run inside each benchmarked command's own process.

Each core of the shared benchmark host switches between a fast state and
one about 1.8x slower every few seconds, for tens of seconds at a time,
whatever the benchmark does; a command's time moves with the state of the
core it runs on.  `kernel` is a fixed piece of work of the kinds the
`degenrd` commands do (a pure-Python loop, small numpy operations and
mpmath arithmetic) that imports nothing from the package, so its time
measures the core's state and not the code under test.

`job.py` takes a reading (`Probes.take`) after the imports, at phase
boundaries of the command, every half second while it runs, and after
it.  A reading pauses the process that takes it, so a slowdown the command
causes itself is not scaled away.  The kernel's time is its thread's CPU time, so
waiting for a core that the command's own threads or workers hold is not
counted either.  A sweep worker takes readings while the other worker
runs on the other core.  On a shared 2-core Intel Xeon host that did not
change the kernel's time: the ratio was 1.0 with the other core idle,
busy, or streaming memory.
`at_reference_speed` leaves the probes' own time out and scales
each stretch between two readings by ``REFERENCE_S / kernel time``, the
mean of the two: a time is then in seconds at the speed at which the
kernel takes `REFERENCE_S`.
"""

from __future__ import annotations

import time

import mpmath
import numpy as np

# between the kernel's times on a fast (about 0.009 s) and a slow (about
# 0.017 s) core of a shared 2-core Intel Xeon host (Python 3.11, numpy 2.4,
# mpmath 1.3); a fixed scale, the same for every commit
REFERENCE_S = 0.012


def kernel() -> float:
    """Run the fixed work once and return its thread CPU time in seconds."""
    t0 = time.thread_time()
    acc = 0.0
    for i in range(30_000):                # interpreter overhead
        acc += (i % 7) * 0.5 - acc * 1e-6
    x = np.linspace(0.0, 1.0, 256)
    for _ in range(1_000):                 # small-array numpy calls
        x = np.exp(-x) * 0.3 + x * 0.5
    with mpmath.workdps(30):               # arbitrary-precision arithmetic
        s = mpmath.mpf(0)
        for k in range(1, 150):
            s += mpmath.exp(-mpmath.mpf(k) / 50) * mpmath.sqrt(k)
    elapsed = time.thread_time() - t0
    if not (np.isfinite(acc) and np.isfinite(x).all() and s > 0):
        raise ArithmeticError("calibration kernel gave a non-finite value")
    return elapsed


class Probes:
    """Readings ``[start, end, kernel_s]`` of `kernel`, in one process."""

    def __init__(self):
        self.readings: list[list[float]] = []
        self._busy = False

    def take(self, *_signal) -> None:
        """Take a reading; also a signal handler, so never nested."""
        if self._busy:
            return
        self._busy = True
        t0 = time.monotonic()
        k = kernel()
        self.readings.append([t0, time.monotonic(), k])
        self._busy = False

    def drain(self) -> list[list[float]]:
        """Return and forget the readings taken so far."""
        out, self.readings = self.readings, []
        return out


def at_reference_speed(readings, a: float, b: float) -> tuple[float, float]:
    """Seconds of ``[a, b]`` outside the probes: as measured, and scaled.

    A stretch between two readings is scaled by the mean of their kernel
    times, the stretches before the first and after the last by that
    reading alone.  Readings of several processes may overlap; their union
    is left out.  Without readings both figures are ``b - a``.
    """
    if not readings:
        return b - a, b - a
    readings = sorted(readings)
    measured = scaled = 0.0
    end, k_prev = a, readings[0][2]
    for t0, t1, k in [*readings, [b, b, readings[-1][2]]]:
        stretch = min(t0, b) - max(end, a)
        if stretch > 0:
            measured += stretch
            scaled += stretch * REFERENCE_S / ((k_prev + k) / 2)
        end, k_prev = max(end, t1), k
    return measured, scaled


if __name__ == "__main__":
    print(" ".join(f"{kernel():.4f}" for _ in range(10)))
