"""Host speed: a fixed pure-Python workload timed next to every repetition.

On a shared host the speed of Python code drifts over minutes: on a 2-vCPU
VM the same simulation of the same input took 2.7 s in one minute and 5.2 s
a few minutes later, with CPU time equal to wall time.  Raw times from ten
runs in a row then spread by 40% and more, whatever the benchmark does
within a run.  So the benchmark also times this workload right before and right after
each repetition and reports every time in *reference seconds*: the raw time
scaled by ``REFERENCE_S / mean sample``, which is what it would have taken on
a host where one sample takes ``REFERENCE_S``.

The workload does what the simulator's hot paths do (an event heap, dict
lookups, attribute updates on slotted objects, float arithmetic) over a
working set of about 2.5 MB, small next to the simulator's own, so it adds
little to ``peak_rss_mb``.  It imports nothing from the simulator, so no
change under ``src/`` can move it, and it runs with the garbage collector
off so the simulator's heap cannot slow it down.  Changing it, or
``REFERENCE_S``, changes every reported time: do it only together with new
baselines.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

#: Seconds one :func:`sample` takes on the reference host: a round figure
#: inside the 45-85 ms that samples took on the 2-vCPU Intel Xeon VM the
#: benchmark was written on, so reference seconds stay close to raw ones.
REFERENCE_S = 0.06

_TABLE_BITS = 14
_STEPS = 40_000
_HEAP_LIMIT = 512


class _Item:
    __slots__ = ("key", "value", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0.0
        self.count = 0


_table: dict = {}


def _work() -> float:
    """One fixed unit of work; returns a checksum so nothing is optimised away."""
    table = _table
    mask = (1 << _TABLE_BITS) - 1
    heap: List[tuple] = []
    x = 12345
    clock = 0.0
    total = 0.0
    for seq in range(_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        item = table[x & mask]
        item.count += 1
        item.value = item.value * 0.5 + (x >> 8) * 1e-9
        heapq.heappush(heap, (clock + (x & 1023) * 1e-3, seq, item))
        if len(heap) > _HEAP_LIMIT:
            clock, _, done = heapq.heappop(heap)
            total += done.value
    return total


def sample() -> float:
    """Seconds one unit of the reference workload takes right now."""
    if not _table:
        _table.update((key, _Item(key)) for key in range(1 << _TABLE_BITS))
        _work()  # first touch of the table
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples: List[float]) -> float:
    """Reference seconds per raw second for a run with these samples."""
    return REFERENCE_S / statistics.fmean(samples)
