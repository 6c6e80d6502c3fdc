"""Host-speed probe: how fast the CPU runs Python while a rep runs.

The benchmark's host is a small virtual machine whose speed changes by
tens of percent from one second to the next, independently on each
virtual CPU.  The probe measures that speed alongside the program: a
child process at the lowest priority, pinned to the same CPU as the
reps, repeats a fixed unit of interpreter work and publishes how many
units it has done and the CPU time they took.  At nice 19 the scheduler
gives it about 1–1.5% of the CPU in slices of a few milliseconds spread
over the whole rep, so its CPU time per unit samples the host at the
same moments as the program runs.  A rep reads the counters at the edges
of each timed phase; ``probe_us`` turns two readings into microseconds
of probe CPU time per unit over that phase.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from time import process_time

#: units run before counting, so the probe's own start-up is not sampled
WARM_UNITS = 20

_KEYS = [(i * 2654435761) & 0x3FFFFFFF for i in range(2000)]


class _Cell:
    __slots__ = ("key", "items")

    def __init__(self, key: int) -> None:
        self.key = key
        self.items = [key]


def probe_unit() -> int:
    """A fixed unit of interpreter work that does not touch the program.

    Integer arithmetic, attribute access and method calls on small
    objects, and dict/list building: the kinds of work the program's own
    Python code does.  Timed separately, each kind tracked the program's
    speed less closely than the mix does.
    """
    x = 0
    for i in range(3000):
        x = (x * 31 + i) & 0xFFFF
    cells = [_Cell(i) for i in range(64)]
    counts: dict = {}
    for i in range(400):
        cell = cells[i & 63]
        counts[cell.key] = len(cell.items) + counts.get(cell.key, 0)
        cell.items.append(i)
        if len(cell.items) > 4:
            cell.items.pop(0)
    buckets: dict = {}
    for key in _KEYS:
        buckets.setdefault(key & 0xFF, []).append(key)
    return x + len(counts) + len(buckets)


def _probe_loop(counts) -> None:
    """``counts``: [units done, their CPU seconds, stop flag]."""
    os.nice(19)
    gc.disable()
    for _ in range(WARM_UNITS):
        probe_unit()
    units = 0
    start = process_time()
    while counts[2] == 0.0:
        probe_unit()
        units += 1
        counts[1] = process_time() - start
        counts[0] = units


class Probe:
    """The probe process, as a context manager that always stops it.

    Fork it from the process the reps are forked from, after pinning
    that process to one CPU, so that probe and reps share the CPU.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self.counts = ctx.RawArray("d", 3)
        self._process = ctx.Process(target=_probe_loop, args=(self.counts,), daemon=True)

    def __enter__(self) -> "Probe":
        self._process.start()
        return self

    def __exit__(self, *exc) -> None:
        self.counts[2] = 1.0
        self._process.join(10.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()

    def read(self) -> "tuple[float, float]":
        return self.counts[0], self.counts[1]


def probe_us(before, after) -> "float | None":
    """Probe CPU microseconds per unit between two readings (None: no unit ran)."""
    units = after[0] - before[0]
    if units <= 0:
        return None
    return (after[1] - before[1]) / units * 1e6


def pin_to_one_cpu() -> int:
    """Restrict this process, and every child it forks, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
