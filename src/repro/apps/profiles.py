"""Synthetic parallelism profiles and scheduled replay workloads (§4.1).

The paper argues controllers must track *abrupt* changes in available
parallelism (Delaunay refinement: no parallelism → ~1000 parallel tasks in
~30 temporal steps, per LonESTAR [15]).  To exercise exactly that, a
:class:`ScheduledReplayWorkload` runs a sequence of *phases*; each phase
is a stationary CC graph held for a fixed number of steps, and at phase
boundaries the graph (hence ``r̄(m)`` and the optimum ``μ``) switches
instantly under the controller's feet.

Phase graphs are built by :func:`graph_for_parallelism`: a union of ``p``
cliques over ``n`` nodes has expected maximal-IS size ≈ ``p``, so ``p``
*is* the available parallelism — the worst-case family of Thm. 2 doubling
as a parallelism dial.

Profile builders return phase lists: :func:`step_profile`,
:func:`ramp_profile`, :func:`spike_profile` and
:func:`delaunay_burst_profile` (the 0 → peak in ~30 steps shape).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ApplicationError
from repro.graph.ccgraph import CCGraph
from repro.graph.generators import union_of_cliques
from repro.runtime.conflict import BatchOutcome, ConflictPolicy
from repro.runtime.core import new_workset
from repro.runtime.task import Operator, Task
from repro.runtime.workloads import Workload

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # layering: apps sit below the engine wiring
    from repro.runtime.engine import OptimisticEngine

__all__ = [
    "Phase",
    "graph_for_parallelism",
    "step_profile",
    "ramp_profile",
    "spike_profile",
    "delaunay_burst_profile",
    "ScheduledReplayWorkload",
]


@dataclass(frozen=True)
class Phase:
    """One stationary stretch of a scheduled workload."""

    duration: int
    graph: CCGraph
    label: str = ""

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ApplicationError(f"phase duration must be >= 1, got {self.duration}")
        if self.graph.num_nodes < 1:
            raise ApplicationError("phase graph must have at least one node")


def graph_for_parallelism(parallelism: int, total_tasks: int) -> CCGraph:
    """A CC graph over ``total_tasks`` nodes with ≈ *parallelism* available.

    ``p`` disjoint cliques of balanced sizes: every maximal independent set
    has exactly one node per clique, so available parallelism is exactly
    ``p`` regardless of the scheduler.
    """
    if parallelism < 1:
        raise ApplicationError(f"parallelism must be >= 1, got {parallelism}")
    if total_tasks < parallelism:
        raise ApplicationError(
            f"need at least {parallelism} tasks for parallelism {parallelism}, "
            f"got {total_tasks}"
        )
    base = total_tasks // parallelism
    extra = total_tasks % parallelism
    g = CCGraph()
    for k in range(parallelism):
        size = base + (1 if k < extra else 0)
        ids = [g.add_node() for _ in range(size)]
        for i, u in enumerate(ids):
            for v in ids[i + 1 :]:
                g.add_edge(u, v)
    return g


def step_profile(
    low: int, high: int, total_tasks: int, steps_per_phase: int = 60
) -> list[Phase]:
    """low → high → low parallelism, abrupt switches."""
    return [
        Phase(steps_per_phase, graph_for_parallelism(low, total_tasks), "low"),
        Phase(steps_per_phase, graph_for_parallelism(high, total_tasks), "high"),
        Phase(steps_per_phase, graph_for_parallelism(low, total_tasks), "low"),
    ]


def ramp_profile(
    low: int, high: int, total_tasks: int, stages: int = 6, steps_per_stage: int = 20
) -> list[Phase]:
    """Geometric staircase from *low* up to *high* parallelism."""
    if stages < 2:
        raise ApplicationError(f"need >= 2 ramp stages, got {stages}")
    levels = np.unique(
        np.geomspace(max(low, 1), max(high, 1), stages).astype(int)
    )
    return [
        Phase(steps_per_stage, graph_for_parallelism(int(p), total_tasks), f"p={int(p)}")
        for p in levels
    ]


def spike_profile(
    base: int, peak: int, total_tasks: int, base_steps: int = 50, peak_steps: int = 12
) -> list[Phase]:
    """Short burst of parallelism in an otherwise serial workload."""
    return [
        Phase(base_steps, graph_for_parallelism(base, total_tasks), "base"),
        Phase(peak_steps, graph_for_parallelism(peak, total_tasks), "spike"),
        Phase(base_steps, graph_for_parallelism(base, total_tasks), "base"),
    ]


def delaunay_burst_profile(
    peak: int = 1000, total_tasks: int = 4000, rise_steps: int = 30, hold_steps: int = 60
) -> list[Phase]:
    """The [15] Delaunay shape: ~no parallelism to *peak* in *rise_steps*.

    The rise is piecewise-stationary in ~6 sub-stages (graphs cannot morph
    continuously under replay), reaching *peak* after *rise_steps* steps.
    """
    stages = 6
    per = max(rise_steps // stages, 1)
    levels = np.unique(np.geomspace(2, peak, stages).astype(int))
    phases = [
        Phase(per, graph_for_parallelism(int(p), total_tasks), f"rise p={int(p)}")
        for p in levels
    ]
    phases.append(Phase(hold_steps, graph_for_parallelism(peak, total_tasks), "hold"))
    return phases


class _DelegatingGraphPolicy(ConflictPolicy):
    """Resolves against the workload's *current* phase graph."""

    def __init__(self, workload: "ScheduledReplayWorkload"):
        self._workload = workload

    def resolve(self, batch, operator) -> BatchOutcome:
        graph = self._workload.graph
        committed_nodes: set[int] = set()
        committed: list[Task] = []
        aborted: list[Task] = []
        for task in batch:
            node = task.payload
            if committed_nodes.isdisjoint(graph.neighbors(node)):
                committed_nodes.add(node)
                committed.append(task)
            else:
                aborted.append(task)
        return BatchOutcome(committed, aborted)


class _ReplayOperator(Operator):
    def __init__(self, workload: "ScheduledReplayWorkload"):
        self._workload = workload

    def neighborhood(self, task: Task):
        return self._workload.graph.neighbors(task.payload)

    def apply(self, task: Task) -> list[Task]:
        return [task]  # stationary within a phase


class ScheduledReplayWorkload(Workload):
    """Piecewise-stationary replay over a phase schedule.

    Wire with :meth:`make_engine`; the phase clock advances through the
    engine's ``step_hook``.  After the last phase the schedule holds the
    final graph indefinitely (cap the run with ``max_steps``).
    """

    def __init__(self, phases: list[Phase]):
        if not phases:
            raise ApplicationError("schedule needs at least one phase")
        self.phases = list(phases)
        self._phase_idx = 0
        self._steps_left = self.phases[0].duration
        self.graph = self.phases[0].graph
        self.operator: Operator = _ReplayOperator(self)
        self.policy: ConflictPolicy = _DelegatingGraphPolicy(self)
        self.transitions: list[int] = []  # engine steps where phases switched
        self._fill_workset()

    def _fill_workset(self) -> None:
        self.workset = new_workset()
        self.workset.add_all([Task(payload=node) for node in self.graph.nodes()])

    @property
    def current_phase(self) -> Phase:
        return self.phases[self._phase_idx]

    def total_steps(self) -> int:
        """Length of the full schedule in engine steps."""
        return sum(p.duration for p in self.phases)

    def _advance(self, engine: "OptimisticEngine", stats) -> None:
        self._steps_left -= 1
        if self._steps_left > 0 or self._phase_idx + 1 >= len(self.phases):
            return
        self._phase_idx += 1
        nxt = self.phases[self._phase_idx]
        self._steps_left = nxt.duration
        self.graph = nxt.graph
        self._fill_workset()
        engine.workset = self.workset
        self.transitions.append(stats.step + 1)

    def make_engine(self, controller, **kwargs) -> "OptimisticEngine":
        """Engine whose work-set and conflicts follow the schedule.

        Takes :meth:`Workload.make_engine`'s keywords except
        ``step_hook``, which the phase clock occupies.
        """
        return super().make_engine(controller, step_hook=self._advance, **kwargs)
