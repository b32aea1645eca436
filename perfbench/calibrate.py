"""A fixed calibration loop that measures how fast the host runs right now.

On a shared virtual machine the speed the host grants a process drifts by up
to 1.6x within seconds, and CPU time drifts with wall time, so neither can be
gated raw.  The benchmark times this loop right before and right after each
timed sweep, and scales the sweep's time by

    CAL_REFERENCE_S / (mean of the two calibration times)

which turns it into the time the same work would take on a host that runs
this loop in CAL_REFERENCE_S.  The loop imports nothing from compnoma, so a
change to the package moves the scaled timing as much as the raw one; what
the scaling removes is the host's speed at the moment of measuring.

The loop has two halves of about equal time: one builds frozen dataclasses
and makes scalar ``math`` calls and small numpy draws, as a trial does; the
other sorts 20,000 random doubles and sums their logarithms.  Timed next to
fig5 sweeps on the 2-vCPU VM the benchmark was defined on, the first half
alone slowed down more than the sweeps when the host slowed (log-log slope
0.7, so scaling over-corrected), the second alone sometimes less (slope up
to 1.5 between runs).  In 8 s blocks of a 160 s run whose raw block medians
spread 0.27 (quartile distance / median), the scaled block medians spread
0.076 with the first half, 0.033 with the second and 0.043 with both, and
both together gave the smallest range (0.086).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# about the median wall time of calibrate() on the 2-vCPU VM the benchmark was defined on
CAL_REFERENCE_S = 0.025
CAL_ITEMS = 3000
CAL_SORTS = 60
CAL_SIZE = 20_000


@dataclass(frozen=True)
class _Item:
    index: int
    gain: float
    cells: tuple[int, int]


def _loop(items: int, sorts: int) -> float:
    rng = np.random.default_rng(12345)
    table: dict[int, _Item] = {}
    total = 0.0
    for i in range(items):
        draw = rng.random(4)
        item = _Item(i, float(draw[0]) + 1.0, (i, i + 1))
        table[i & 63] = item
        for j in range(6):
            total += math.log2(1.0 + item.gain * (j + 1)) / (1.0 + j)
        total += float(np.hypot(draw[1], draw[2]))
    for _ in range(sorts):
        values = np.sort(rng.random(CAL_SIZE))
        total += float(np.log2(1.0 + values).sum())
    return total


def calibrate() -> tuple[float, float]:
    """(wall seconds, CPU seconds of this process) of one calibration loop."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _loop(CAL_ITEMS, CAL_SORTS)
    return time.perf_counter() - wall0, time.process_time() - cpu0


# run the loop once at import, so the first timed call is not cold
_loop(100, 2)
