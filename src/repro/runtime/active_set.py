"""Incremental active-set selection backend (``select="incremental"``).

``BENCH_obs.json`` showed ``select`` eating ~73% of step wall-clock: the
fast kernels had already won ``resolve``/``commit``, but the reference
:class:`~repro.runtime.workset.RandomWorkset` still walks a per-task
Python loop of scalar RNG draws every step.  :class:`ActiveSet` is the
same bag with the loop hoisted into one vectorised kernel call and the
bookkeeping made O(delta):

* **dense slot array** — tasks live in a contiguous list; slot ``i``
  holds the ``i``-th pending task, so commits/aborts re-enter via a
  single ``list.extend`` (:meth:`add_batch`) instead of per-task
  appends;
* **vectorised prefix sampling** — :meth:`take` fetches all ``k``
  bounded draws from :func:`~repro.runtime.kernels.sample_prefix_draws`
  in one call and replays them through the swap loop, which is
  *bit-identical* to ``RandomWorkset.take`` under the same seed (same
  batches, same generator state afterwards — the differential and
  distribution suites enforce both);
* **lazy uid ↔ slot map** — :meth:`discard` and :meth:`__contains__`
  need task-id → slot lookups, but the engine's hot path never does, so
  the map is built on first use and invalidated wholesale by
  :meth:`take` (k dict deletions would cost more than one rebuild
  amortised over a batch).

The class attribute ``incremental = True`` is the capability flag the
workloads read to switch the conflict policy onto memoised CSR deltas
(:meth:`repro.graph.ccgraph.CCGraph.conflict_view`) and the commit-order
policy onto the batched apply path.

**Invariant** (fuzzed in ``tests/test_fuzz.py``): after any sequence of
``add`` / ``add_batch`` / ``take`` / ``discard``, the slot list and the
uid → slot map equal those of a from-scratch rebuild; and any prefix of
draws fed through :meth:`take` leaves the list in exactly the state the
reference sampler's swap-pop loop would.

Membership helpers (:meth:`discard`, :meth:`__contains__`) assume each
task is present at most once — the engine guarantees it (a task is
either pending or in flight, never both).  ``add``/``take`` stay exact
even with duplicates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorksetEmptyError
from repro.runtime.kernels import sample_prefix_draws
from repro.runtime.task import Task
from repro.runtime.workset import Workset

__all__ = ["ActiveSet"]


class ActiveSet(Workset):
    """Dense active-set work-set with O(delta) updates and vectorised take.

    Drop-in replacement for :class:`~repro.runtime.workset.RandomWorkset`
    — same uniform m-out-of-n ``π_m`` prefix distribution, bit-identical
    batches under the same seed — selected via ``select="incremental"``,
    the default.
    """

    #: capability flag: workloads route conflict resolution through the
    #: memoised CSR delta view and policies through the batched apply
    #: path when the work-set advertises incremental maintenance.
    incremental = True

    def __init__(self) -> None:
        self._items: list[Task] = []
        #: uid -> slot, built lazily by :meth:`_slots`; ``None`` = stale
        self._slot_of: "dict[int, int] | None" = None

    # -- insertion ------------------------------------------------------
    def add(self, task: Task) -> None:
        slots = self._slot_of
        if slots is not None:
            slots[task.uid] = len(self._items)
        self._items.append(task)

    def add_batch(self, tasks: "list[Task] | tuple[Task, ...]") -> None:
        """Append *tasks* in order via one ``list.extend`` (O(delta))."""
        slots = self._slot_of
        if slots is not None:
            base = len(self._items)
            for offset, task in enumerate(tasks):
                slots[task.uid] = base + offset
        self._items.extend(tasks)

    def add_all(self, tasks: "list[Task] | tuple[Task, ...]") -> None:
        self.add_batch(tasks)

    # -- removal --------------------------------------------------------
    def take(self, count: int, rng: np.random.Generator) -> list[Task]:
        """Uniform batch draw, bit-identical to ``RandomWorkset.take``.

        One vectorised kernel call fetches all ``k`` bounded draws; the
        swap loop then replays the reference sampler's partial
        Fisher–Yates walk with the pops deferred — the selected tasks
        end up (reversed) in the tail, which is sliced off in one go.
        """
        items = self._items
        if not items:
            raise WorksetEmptyError("take() from empty work-set")
        if count < 0:
            raise ValueError(f"cannot take {count} tasks")
        n = len(items)
        k = min(count, n)
        if k == 0:
            return []
        draws = sample_prefix_draws(n, k, rng)
        last = n - 1
        for j in draws.tolist():
            items[j], items[last] = items[last], items[j]
            last -= 1
        batch = items[n - k:]
        batch.reverse()
        del items[n - k:]
        if self._slot_of is not None:
            self._slot_of = None  # wholesale invalidation beats k deletions
        return batch

    def discard(self, task: Task) -> bool:
        """Remove *task* if pending (O(1) amortised swap-removal).

        Returns ``True`` when the task was present.  The first discard
        after a :meth:`take` rebuilds the uid → slot map (O(n)); further
        discards are O(1).
        """
        slots = self._slots()
        slot = slots.pop(task.uid, None)
        if slot is None:
            return False
        items = self._items
        mover = items[-1]
        if mover.uid != task.uid:
            items[slot] = mover
            slots[mover.uid] = slot
        items.pop()
        return True

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, task: Task) -> bool:
        return task.uid in self._slots()

    def index_of(self, task: Task) -> "int | None":
        """Current slot of *task*, or ``None`` when not pending."""
        return self._slots().get(task.uid)

    def tasks(self) -> "tuple[Task, ...]":
        """Immutable snapshot of the slot list (slot order)."""
        return tuple(self._items)

    def _slots(self) -> dict[int, int]:
        slots = self._slot_of
        if slots is None:
            slots = {task.uid: i for i, task in enumerate(self._items)}
            self._slot_of = slots
        return slots
