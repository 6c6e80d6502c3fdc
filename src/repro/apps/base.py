"""Shared workload plumbing for the application layer.

:class:`AppWorkload` gives every application the workload protocol the
core stack speaks (``workset`` / ``operator`` / ``policy`` plus
:meth:`~repro.runtime.workloads.Workload.make_engine`), the same shape
as :class:`~repro.runtime.workloads.GraphWorkloadBase`:

* apps accept an injected ``workset=`` (how ``repro.api.run`` hands them
  the work-set matching ``config.order`` / ``config.select``), defaulting
  to the same selection backend ``repro.api.run`` picks
  (:func:`~repro.runtime.core.new_workset`);
* ordered-only apps set :attr:`requires_order` and override
  :meth:`priority_of`; the config/registry layer rejects unordered runs
  of such apps with an actionable error, and ``make_engine`` wires them
  onto the ordered engine.

Engine classes are imported at call time only: the apps layer sits below
the point where engines are wired together, and
``tools/check_layers.py`` forbids module-level ``runtime.engine`` /
``runtime.ordered`` imports from ``repro.apps``.
"""

from __future__ import annotations

from repro.runtime.core import new_workset
from repro.runtime.task import Task
from repro.runtime.workloads import Workload

__all__ = ["AppWorkload"]


class AppWorkload(Workload):
    """Mixin giving an application the core-stack workload protocol.

    Subclasses call :meth:`_init_workset` early in ``__init__`` (before
    seeding tasks), then seed via :meth:`_seed_task`, and expose
    ``self.policy``.  Everything else — the ``operator`` property and
    ``make_engine`` — is inherited.  Ordered-only apps set
    ``requires_order``; the registry/config layer then rejects unordered
    commit orders.
    """

    # ------------------------------------------------------------------
    # work-set plumbing
    # ------------------------------------------------------------------
    def _init_workset(self, workset=None) -> None:
        """Adopt the injected work-set, or the default one.

        ``None`` picks the default selection backend (or, for
        ``requires_order`` apps, a priority work-set — those override
        :meth:`_default_workset`).
        """
        self.workset = workset if workset is not None else self._default_workset()
        # priority work-sets take (task, priority); plain ones take (task)
        self._priority_seeding = hasattr(self.workset, "take_earliest")

    def _default_workset(self):
        return new_workset()

    def _seed_task(self, task: Task) -> None:
        """Add *task* to the work-set, priority-aware when needed."""
        if self._priority_seeding:
            self.workset.add(task, self.priority_of(task))
        else:
            self.workset.add(task)

    # ------------------------------------------------------------------
    # workload protocol
    # ------------------------------------------------------------------
    @property
    def operator(self):
        """Apps are their own :class:`~repro.runtime.task.Operator`."""
        return self

    def priority_of(self, task: Task) -> float:
        """Commit priority of *task* under ordered/relaxed policies.

        The default ranks by payload (node/clause/cluster id — the
        canonical graph priority); apps with semantic order (DES event
        times) override it.
        """
        return float(task.payload)
