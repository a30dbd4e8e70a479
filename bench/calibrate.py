"""Host speed, measured by a fixed pure-Python kernel between commands.

On a shared 2-vCPU Xeon VM, one pass over the same evaluate commands
took from 0.50 s to 1.13 s within a minute, and for minutes at a time
the host ran this code about twice as slowly, with CPU time equal to
wall time throughout.  Best-of-N times did not repeat across runs under
such spells.  A small loop shaped like the library's series summation
(closures, ``math.log``, ``ldexp``, a deque window), timed every 20 ms
between commands, slows down with them: over five 25 s runs of one seed,
the median over passes of (pass time / mean kernel time in that pass)
ranged over 3.7 % (evaluate) and 5.2 % (breakeven) of its median,
against 14 % and 39 % for the best-of-N pass time.

Times are reported in reference seconds: seconds scaled to a host on
which the kernel takes ``REFERENCE_S``, about its median on that VM.
The kernel is frozen; changing it changes every number, so it changes
only with a new baseline.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque

#: Kernel time that defines the reference host speed.
REFERENCE_S = 1e-3
#: Least time between two kernel samples.
INTERVAL_S = 0.02


def kernel() -> float:
    """Sum four copies of a 400-term doubling-payout log series."""
    total = 0.0
    for k in range(4):
        p = 0.05 + 0.01 * k
        q = 1.0 - p
        net, log_w = 98.0, math.log(100.0)

        def term(n: int, weight: float) -> float:
            return weight * (math.log(net + math.ldexp(1.0, n - 1)) - log_w)

        weight = p
        window: deque = deque(maxlen=16)
        for n in range(1, 401):
            tau = term(n, weight)
            total += tau
            window.append(tau)
            weight *= q
    return total


class Speed:
    """Kernel samples taken during one pass."""

    def __init__(self) -> None:
        self.samples = []
        self._last = -math.inf

    def sample(self) -> None:
        """Time the kernel if ``INTERVAL_S`` passed since the last sample."""
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - now)

    def slowness(self) -> float:
        """Mean kernel time over the reference: divide seconds by it."""
        return statistics.fmean(self.samples) / REFERENCE_S
