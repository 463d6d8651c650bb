"""Machine-speed reference for the benchmark's timed end-to-end metrics.

The benchmark runs on a few cores of a shared host, whose speed for
single-threaded Python drifts by up to 1.7x over tens of seconds, in
both wall and CPU time.  A pass of ``fft128_paced`` is one 3-4 s call, so
no statistic over a run's passes can step around a slow stretch: the
passes' medians then spread by 10-35% from run to run.

So a fixed piece of pure-Python work that uses nothing of ``sfgsched`` is
timed between passes, and each pass is scaled by the machine's speed
around it::

    factor = REFERENCE_S / mean(reference chunk times before and after)
    wall_ref_s = wall_s * factor

that is, the time the pass would have taken at the speed where one chunk
of the reference work takes ``REFERENCE_S``.  The reference work does not
touch the program, so a change to ``sfgsched`` moves the scaled times by
the same share as the raw ones.  The raw times are recorded next to them.
"""

from __future__ import annotations

import heapq
import statistics
import time

CHUNKS = 5         # reference chunks timed between two passes
ITEMS = 10_000     # items list-scheduled by one chunk
# Median time of one chunk on the 2-vCPU VM the benchmark was tuned on
# (Python 3.11.7), over the chunks timed between fft128_paced passes in
# five 40-s runs.
REFERENCE_S = 0.045


class _Item:
    __slots__ = ("deps", "slot")

    def __init__(self, deps: tuple[int, ...]):
        self.deps = deps
        self.slot = -1


def reference_work(n: int = ITEMS) -> int:
    """List-schedule ``n`` items with up to three predecessors each on a
    heap, probing a dict for a free slot: the dict, heap, tuple and
    attribute traffic of a list scheduler, in a fixed amount.  Returns the
    last slot used, ``n - 1``."""
    items = [_Item(tuple(j for j in (i - 1, i // 2, i - 7) if 0 <= j < i))
             for i in range(n)]
    waiting = [len(it.deps) for it in items]
    users: dict[int, list[int]] = {}
    for i, it in enumerate(items):
        for d in it.deps:
            users.setdefault(d, []).append(i)
    ready = [(0, i) for i, it in enumerate(items) if not it.deps]
    busy: dict[int, int] = {}
    last = -1
    while ready:
        slot, i = heapq.heappop(ready)
        while busy.get(slot % 97) == slot // 97:
            slot += 1
        busy[slot % 97] = slot // 97
        items[i].slot = slot
        last = max(last, slot)
        for u in users.get(i, ()):
            waiting[u] -= 1
            if not waiting[u]:
                start = max(items[d].slot for d in items[u].deps) + 1
                heapq.heappush(ready, (start, u))
    return last


def time_reference() -> list[float]:
    """Seconds of each of ``CHUNKS`` chunks of reference work."""
    times = []
    for _ in range(CHUNKS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return times


def speed_factor(before: list[float], after: list[float]) -> float:
    """Scale for a pass timed between the chunks ``before`` and ``after``."""
    return REFERENCE_S / statistics.mean(before + after)
