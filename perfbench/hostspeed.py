"""Host-speed probe, which puts timings taken on a shared, drifting host on
one scale.

On a small shared guest the host's speed drifts by tens of percent, both
between runs and within one, and every step of a run moves with it. A median
within a run cannot remove a drift that lasts the whole run. So a short,
fixed probe that runs no eprsim code is timed right before each step. The
pass's times are then multiplied by the probe's reference time over the
probe's mean time in the pass. A change to eprsim does not change the probe,
so it moves a scaled timing just as it moves a raw one.

One Python probe scales every step, the numpy-bound Monte Carlo ``chsh`` too;
README.md gives the spreads that a separate numpy probe gave instead.
"""
from __future__ import annotations

import statistics
import time

# Reference seconds of the probe: about its median on a 2-core KVM guest
# (Intel Xeon, Python 3.11, numpy 2.4) over the baseline runs in README.md.
REFERENCE_S = 0.008


def probe() -> float:
    """Seconds for dict, list and string work, the mix of the CLI's Python code."""
    start = time.perf_counter()
    table, rows = {}, []
    for i in range(8000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        rows.append(f"{i},{k},{i * 0.5!r}")
    "\n".join(rows)
    sorted(table.items())
    return time.perf_counter() - start


def scale(seconds: list[float]) -> float:
    """The reference time of the probe over its mean in ``seconds``."""
    return REFERENCE_S / statistics.fmean(seconds)
