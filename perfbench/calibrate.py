"""Host-speed calibration for the end-to-end times.

The benchmark's host is shared: the same simulation, in the same process,
takes anywhere from 0.7x to 1.5x its usual CPU time depending on what the
machine's other tenants do, in spells that last from seconds to minutes.
Neither CPU time nor medians over a run remove that.  So before every
simulated run the benchmark times one fixed slice of interpreter work of
its own (a small heap-and-dict event loop, the same kind of work the
simulator does) and scales each round's time by ``REFERENCE_S`` over the
round's mean slice time.  The end-to-end times therefore read in seconds
of a host on which one slice takes ``REFERENCE_S``; a change to the
simulator changes them and leaves the slices alone, because the slice
calls no simulator code.
"""

from __future__ import annotations

import heapq

#: CPU seconds one slice takes on the reference host (a quiet spell of
#: the 2-core machine the bounds were set on).
REFERENCE_S = 0.005


class _Event:
    __slots__ = ("time", "key", "payload")

    def __init__(self, time: int, key: int) -> None:
        self.time = time
        self.key = key
        self.payload = None


def slice_(n: int = 4000) -> int:
    """One calibration slice: ``n`` pushes through a bounded event heap
    with a table of live events."""
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(n):
        ev = _Event((i * 7919) % 1000, i)
        heapq.heappush(heap, (ev.time, i, ev))
        table[i & 1023] = ev
        if len(heap) > 64:
            t, _, _ = heapq.heappop(heap)
            acc += t + len(table)
    return acc
