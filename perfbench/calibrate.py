"""Reference seconds: wall time corrected for how fast the machine runs.

The shared machines this benchmark runs on change speed over minutes as
other tenants come and go.  On the 2-vCPU VM it was written on, a fixed
loop took 14 ms in one 10-second window and 18.5 ms a minute later, and
one ``armed`` input took 13 s in one run and 19 s in a later one.  Raw
wall time spread by up to a third between runs, more than any regression
bound can absorb.

So the end-to-end timings are taken in *reference seconds*.  A fixed task
is timed right before and right after every simulation's run, and a
pass's wall times are multiplied by ``REFERENCE_S`` over the median of
the pass's task times.  On a machine where the task takes
``REFERENCE_S``, a reference second is a second.

The task does the simulator's kind of work (generator resumption off a
heap, and pointer chasing through an object graph larger than the CPU
caches) in none of its code, so no change under ``src/`` moves it.  It is
part of the benchmark's definition: changing it, or ``REFERENCE_S``,
rescales every figure.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import List

#: Task time, in seconds, of the machine the figures are scaled to.
REFERENCE_S = 0.01

_RING_SIZE = 1 << 17
_ring: List["_Node"] = []


class _Node:
    __slots__ = ("value", "next")


def _first_node() -> _Node:
    if not _ring:
        _ring.extend(_Node() for _ in range(_RING_SIZE))
        for i, node in enumerate(_ring):
            node.value = i
            # A full-period LCG step: the walk visits every node, in an
            # order scattered across memory.
            node.next = _ring[(69069 * i + 1) % _RING_SIZE]
    return _ring[0]


def _task() -> int:
    def process(i: int):
        for k in range(20):
            yield (i * 31 + k * 17) % 101 + 1

    node = _first_node()
    processes = [process(i) for i in range(400)]
    queue = [(next(p), i) for i, p in enumerate(processes)]
    heapq.heapify(queue)
    total = 0
    while queue:
        now, i = heapq.heappop(queue)
        node = node.next
        total += node.value
        for delay in processes[i]:
            heapq.heappush(queue, (now + delay, i))
            break
    return total


def sample(n: int = 3) -> List[float]:
    """Wall times of ``n`` runs of the reference task, in seconds."""
    times = []
    for _ in range(n):
        start = perf_counter()
        _task()
        times.append(perf_counter() - start)
    return times
