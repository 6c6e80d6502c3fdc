"""Ready-made CC-graph workloads for the engine.

Three ways of turning a :class:`~repro.graph.CCGraph` into an engine
workload, matching the evaluation setups of §4:

* :class:`ReplayGraphWorkload` — **stationary**: tasks are drawn from the
  full graph every step and always returned, so the environment's
  ``r̄(m)`` never changes.  This is the §4.1 validation setup ("a random CC
  graph of fixed average degree is taken and the controller runs on it"):
  the controller faces a fixed unknown curve and must converge to ``μ``.
* :class:`ConsumingGraphWorkload` — committed nodes leave the graph, so
  parallelism grows as conflicts disappear (the draining end-game of a real
  run).
* :class:`RegeneratingGraphWorkload` — committed nodes are replaced by
  fresh nodes wired to ``d`` random survivors; ``n`` and ``d`` stay roughly
  constant, giving a *dynamic but statistically stationary* environment —
  the closest synthetic analogue of a long-running irregular application
  in steady state.

Each workload exposes ``workset``, ``operator`` and ``policy`` and
inherits :meth:`Workload.make_engine`, the one engine builder every
workload — graph, application, capture or trace replay — shares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import RuntimeEngineError

if TYPE_CHECKING:  # avoid runtime<->control import cycle
    from repro.control.base import Controller
from repro.graph.ccgraph import CCGraph
from repro.runtime.conflict import ConflictPolicy, ExplicitGraphPolicy
from repro.runtime.core import new_workset
from repro.runtime.engine import OptimisticEngine
from repro.runtime.task import Operator, Task
from repro.runtime.workset import Workset
from repro.utils.rng import ensure_rng

__all__ = [
    "Workload",
    "GraphWorkloadBase",
    "ReplayGraphWorkload",
    "ConsumingGraphWorkload",
    "RegeneratingGraphWorkload",
]


class Workload:
    """The workload protocol's engine wiring, shared by every workload.

    A workload supplies ``workset``, ``operator`` and ``policy`` (and,
    when :attr:`requires_order` is set, ``priority_of``);
    :meth:`make_engine` binds them and a controller into the engine
    family the workload needs.  :func:`repro.api.run` calls it when no
    explicit ``order=`` is configured.
    """

    #: ordered-only workloads (commits must respect priorities) set this
    #: True; they run on the ordered engine over a priority work-set
    requires_order: bool = False

    def make_engine(
        self,
        controller: "Controller",
        *,
        seed=None,
        step_hook=None,
        cost_model=None,
        recorder=None,
        metrics=None,
        engine: "str | None" = None,
    ):
        """Wire this workload and *controller* into an engine."""
        kwargs = dict(
            workset=self.workset,
            operator=self.operator,
            controller=controller,
            seed=seed,
            step_hook=step_hook,
            cost_model=cost_model,
            recorder=recorder,
            metrics=metrics,
            engine=engine,
        )
        if self.requires_order:
            from repro.runtime.ordered import OrderedEngine

            return OrderedEngine(priority_of=self.priority_of, **kwargs)
        return OptimisticEngine(policy=self.policy, **kwargs)


class _GraphOperator(Operator):
    """Operator whose commit effect is delegated to the owning workload."""

    def __init__(self, workload: "GraphWorkloadBase"):
        self._workload = workload

    def neighborhood(self, task: Task):
        return self._workload.graph.neighbors(task.payload)

    def apply(self, task: Task) -> list[Task]:
        return self._workload.on_commit(task)

    def apply_batch(self, tasks: "list[Task]") -> list[Task]:
        return self._workload.on_commit_batch(tasks)


class GraphWorkloadBase(Workload):
    """Common plumbing: graph, work-set, explicit-graph conflict policy.

    The work-set comes from the selection backend: ``select=`` names a
    built-in backend (``"workset"`` for the reference
    :class:`~repro.runtime.workset.RandomWorkset`, ``"incremental"`` —
    the default — for the dense
    :class:`~repro.runtime.active_set.ActiveSet`), or pass a
    ready-made instance via ``workset=`` (how registry-named third-party
    backends arrive).  Backends advertising ``incremental`` maintenance
    also switch the conflict policy onto memoised CSR deltas.  Both
    built-ins are bit-identical under the same seed, so the choice is
    purely a performance knob.
    """

    def __init__(
        self,
        graph: CCGraph,
        *,
        select: "str | None" = None,
        workset: "Workset | None" = None,
    ):
        if workset is not None and select is not None:
            raise RuntimeEngineError("pass select= or workset=, not both")
        if workset is None:
            workset = new_workset(select)
        self.graph = graph
        self.operator: Operator = _GraphOperator(self)
        self.policy: ConflictPolicy = ExplicitGraphPolicy(
            graph, csr_deltas=bool(getattr(workset, "incremental", False))
        )
        self.workset: Workset = workset
        tasks = [Task(payload=node) for node in graph.nodes()]
        if hasattr(workset, "take_earliest"):
            # priority work-set (ordered/relaxed commit orders): the node
            # id is the canonical graph priority — smaller id = earlier
            for task in tasks:
                workset.add(task, float(task.payload))
        else:
            workset.add_all(tasks)

    def on_commit(self, task: Task) -> list[Task]:  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def on_commit_batch(self, tasks: "list[Task]") -> list[Task]:
        """Commit *tasks* in order; return all new tasks in creation order.

        Default loops :meth:`on_commit`; subclasses whose commit effect
        is uniform may override it, preserving exact equivalence (the
        batched path must stay bit-identical to the per-task walk).
        """
        new_tasks: list[Task] = []
        for task in tasks:
            created = self.on_commit(task)
            if created:
                new_tasks.extend(created)
        return new_tasks


class ReplayGraphWorkload(GraphWorkloadBase):
    """Stationary workload: committed tasks are re-enqueued, graph untouched.

    The engine never drains; cap runs with ``max_steps``.
    """

    def on_commit(self, task: Task) -> list[Task]:
        return [task]  # straight back into the work-set

    def on_commit_batch(self, tasks: "list[Task]") -> list[Task]:
        return list(tasks)  # all straight back, in commit order


class ConsumingGraphWorkload(GraphWorkloadBase):
    """Draining workload: a committed node is removed from the CC graph."""

    def on_commit(self, task: Task) -> list[Task]:
        self.graph.remove_node(task.payload)
        return []


class RegeneratingGraphWorkload(GraphWorkloadBase):
    """Steady-state workload: each commit is replaced by a fresh task.

    The committed node is removed and a new node inserted with edges to
    ``target_degree`` uniformly random survivors, so both ``n`` and the
    average degree stay approximately constant while the topology churns.
    """

    def __init__(
        self,
        graph: CCGraph,
        target_degree: int,
        seed=None,
        *,
        select: "str | None" = None,
        workset: "Workset | None" = None,
    ):
        if target_degree < 0:
            raise RuntimeEngineError(f"target degree must be >= 0, got {target_degree}")
        super().__init__(graph, select=select, workset=workset)
        self.target_degree = target_degree
        self._rng: np.random.Generator = ensure_rng(seed)

    def on_commit(self, task: Task) -> list[Task]:
        g = self.graph
        g.remove_node(task.payload)
        new = g.add_node()
        candidates = [u for u in g.nodes() if u != new]
        if candidates:
            k = min(self.target_degree, len(candidates))
            picks = self._rng.choice(len(candidates), size=k, replace=False)
            for i in picks:
                g.add_edge(new, candidates[int(i)])
        return [Task(payload=new)]
