"""Host-speed calibration: timed intervals scaled to a reference host speed.

Shared cloud vCPUs (measured on a 2-vCPU, 2.1 GHz Xeon VM) switch, every
second to minutes, between a fast regime and one up to 45% slower, and a
whole run can sit in either; process CPU time slows down with them, so it
is no way out.  A fixed kernel that does not use the program — the
arithmetic of one OS-ELM step, a 64-wide hidden layer and a Sherman-Morrison
update — is timed just before and just after each timed call, and the
call's time is scaled by ``KERNEL_REFERENCE_S``, the kernel's time in that
VM's fast regime, over the kernel's mean time around it.  A faster program
moves the scaled figure one for one; a slower host moves the kernel with it.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator, Optional

import numpy as np

KERNEL_REFERENCE_S = 0.0052
KERNEL_ITERATIONS = 300
KERNEL_REPEATS = 2
KERNEL_WIDTH = 64

#: Times the kernel now; ``None`` leaves intervals as measured.
Calibrate = Optional[Callable[[], float]]


def kernel_seconds() -> float:
    """Time the calibration kernel takes now: best of a few repeats."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 5))
    alpha = rng.normal(size=(5, KERNEL_WIDTH))
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        p = np.eye(KERNEL_WIDTH)
        start = time.perf_counter()
        for _ in range(KERNEL_ITERATIONS):
            h = np.tanh(x @ alpha)
            ph = p @ h.T
            p = p - (ph @ ph.T) / (1.0 + float((h @ ph)[0, 0]))
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Sums timed intervals, as measured and at the reference host speed."""

    def __init__(self, calibrate: Calibrate = kernel_seconds) -> None:
        self.calibrate = calibrate
        self.kernel = calibrate() if calibrate else 0.0
        self.timed_s = self.reference_s = 0.0

    @contextlib.contextmanager
    def timed(self) -> Iterator[None]:
        start = time.perf_counter()
        yield
        self.add(time.perf_counter() - start)

    def add(self, elapsed: float) -> None:
        self.timed_s += elapsed
        if self.calibrate is None:
            self.reference_s += elapsed
        else:
            after = self.calibrate()
            self.reference_s += elapsed * KERNEL_REFERENCE_S * 2 / (self.kernel + after)
            self.kernel = after
