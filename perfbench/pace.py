"""The pace kernel: how fast the host is running right now.

The benchmark's box is a few cores of a shared host. While neighbours are
busy every Python instruction takes longer - by a tenth in a quiet hour, by
half in a busy one - for seconds to minutes at a time, so the same code
timed twice reads differently by more than any change worth measuring. So
the benchmark times a fixed piece of pure-Python work (one ``spin()``,
25-50 ms) directly before and after every timed region and divides the
region's seconds by how much slower than its reference time the kernel
ran: the result is the time the region would have taken on the quiet box
the references were taken on. Only the standard library is used, so no
change to ``src/repro`` can move the kernel.

The kernel has two loops, timed apart. ``tight`` is a small-dict loop that
stays in the core's own caches: it slows when the core itself is shared or
clocked down. ``walk`` visits 30 000 small objects in shuffled order
(attribute reads and writes, dict hits, a bounded heap) and misses the
private caches: it also slows when neighbours crowd the shared cache and
the memory bus. A region's slowness is ``tight ** (1 - w) * walk ** w``
with ``w`` the share of the workload that is bound by memory
(``workloads.WALK_WEIGHT``).
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List

#: Seconds each loop takes on the quiet 2-vCPU box the benchmark was sized
#: on (between the medians of 2 000 spins in two quiet hours, which were
#: 4 and 12 % apart). They only fix the scale of the corrected
#: numbers; changing one rescales every timing metric of a workload alike.
TIGHT_REFERENCE_S = 0.0260
WALK_REFERENCE_S = 0.0235

CELLS = 30_000
TIGHT_STEPS = 180_000


class _Cell:
    __slots__ = ("key", "weight", "load", "child")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.load = 0.0
        self.child = key


@dataclass
class Timing:
    """One timed region and the host's slowness measured around it."""

    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    #: Mean of the spins before and after the region: 1.0 at reference pace.
    slowness: float = 1.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def corrected(self) -> float:
        """Seconds the region would have taken at reference pace."""
        return self.wall / self.slowness


class Pace:
    """The kernel and every spin of one benchmark run. ``walk_weight`` is the
    share of a region's slowness read off the cache-missing loop."""

    def __init__(self, walk_weight: float) -> None:
        self.walk_weight = walk_weight
        #: Every spin of the run: ``host_speed`` is read off it.
        self.spins: List[float] = []
        if not walk_weight:
            return  # nothing to walk: keep the cells out of the run's peak RSS
        rng = random.Random(0x9ACE)
        self._cells = [_Cell(key, rng.random()) for key in range(CELLS)]
        for cell in self._cells:
            cell.child = rng.randrange(CELLS)
        self._order = list(range(CELLS))
        rng.shuffle(self._order)
        self._table = {key: rng.randrange(CELLS) for key in range(CELLS)}

    def _tight(self) -> float:
        small: dict = {}
        count = 0
        start = time.perf_counter()
        for step in range(TIGHT_STEPS):
            small[step & 4095] = count
            count += small.get((step * 7) & 4095, 0) & 0xFFFF
        return (time.perf_counter() - start) / TIGHT_REFERENCE_S

    def _walk(self) -> float:
        cells, order, table = self._cells, self._order, self._table
        push, pop = heapq.heappush, heapq.heappop
        heap: list = []
        acc = 0.0
        start = time.perf_counter()
        for index in order:
            cell = cells[index]
            acc += cells[table[cell.key]].weight + cells[cell.child].weight
            cell.load = acc
            push(heap, (acc, cell.key))
            if len(heap) > 64:
                pop(heap)
        return (time.perf_counter() - start) / WALK_REFERENCE_S

    def spin(self) -> float:
        """Do the fixed work once; returns how many times slower than its
        reference it ran."""
        collecting = gc.isenabled()
        gc.disable()  # the program's heap must not cost the kernel a collection
        try:
            slowness = self._tight() ** (1.0 - self.walk_weight)
            if self.walk_weight:
                slowness *= self._walk() ** self.walk_weight
        finally:
            if collecting:
                gc.enable()
        self.spins.append(slowness)
        return slowness

    @contextmanager
    def timed(self) -> Iterator[Timing]:
        """Time the body, with a spin directly before and directly after."""
        timing = Timing()
        before = self.spin()
        cpu = time.process_time()
        timing.start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.end = time.perf_counter()
            timing.cpu = time.process_time() - cpu
            timing.slowness = (before + self.spin()) / 2.0

    def host_speed(self) -> float:
        """One over the run's median slowness: 1.0 on the sizing box when
        quiet, 0.7 while the host runs the kernel 1 / 0.7 times slower."""
        return 1.0 / statistics.median(self.spins)
