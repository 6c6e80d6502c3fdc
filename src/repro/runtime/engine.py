"""The optimistic parallelization engine (unordered commit order).

Discrete-time simulator of a Galois-style speculative runtime, following
the paper's model (§2) exactly:

1. the controller proposes an allocation ``m_t``;
2. ``min(m_t, |workset|)`` tasks are drawn from the work-set (the draw
   order is the commit order ``π_m``);
3. the conflict policy partitions the batch into committed and aborted
   tasks (greedy-independent-set semantics);
4. committed tasks run their operator, possibly creating new tasks
   (graph morphs); aborted tasks are rolled back into the work-set;
5. the controller observes the realised conflict ratio ``r_t``.

All tasks take unit time (the paper's assumption), so one loop iteration
is one "temporal step" and ``m_t`` is the number of processors in use.

The step pipeline itself lives in :mod:`repro.runtime.core`;
:class:`OptimisticEngine` is the core :class:`~repro.runtime.core.Engine`
bound to the :class:`~repro.runtime.policies.UnorderedCommitOrder`
policy, keeping its historical constructor signature.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.runtime.conflict import ConflictPolicy
from repro.runtime.core import Engine, resolve_engine_mode
from repro.runtime.policies import UnorderedCommitOrder
from repro.runtime.stats import StepStats
from repro.runtime.task import Operator
from repro.runtime.workset import Workset

if TYPE_CHECKING:  # avoid runtime<->control import cycle; engine only types it
    from repro.control.base import Controller

__all__ = ["OptimisticEngine", "resolve_engine_mode"]


class OptimisticEngine(Engine):
    """Binds work-set, operator, conflict policy and controller.

    Parameters
    ----------
    workset, operator, policy:
        The workload: pending tasks, their semantics, and how conflicts
        among a speculative batch are detected.
    controller:
        Decides ``m_t`` each step from past observations (any
        :class:`~repro.control.base.Controller`).
    seed:
        RNG seed / generator for task selection.
    step_hook:
        Optional callable invoked as ``step_hook(engine, stats)`` after
        every step — used by the experiments to capture CC-graph snapshots
        or inject workload phase changes.
    cost_model:
        Optional :class:`~repro.runtime.costs.CostModel` pricing commits
        and aborts; totals accumulate in :attr:`costs`.  Defaults to the
        paper's unit costs.
    recorder, metrics, profiler:
        Optional :class:`~repro.obs.TraceRecorder` /
        :class:`~repro.obs.MetricsRegistry` /
        :class:`~repro.obs.SpanProfiler`.  When omitted, the engine
        attaches to the process-wide active recorder/registry/profiler if
        one is set (see :func:`repro.obs.recording`,
        :func:`repro.obs.profiling`), else records nothing.
    engine:
        ``"reference"`` (per-task Python walk) or ``"fast"`` (vectorised
        kernels, see :mod:`repro.runtime.kernels`); ``None`` means
        ``"reference"``.  The two paths are bit-identical — same seeds
        give the same commits, aborts, and observability traces.
    """

    def __init__(
        self,
        workset: Workset,
        operator: Operator,
        policy: ConflictPolicy,
        controller: "Controller",
        seed=None,
        step_hook: "Callable[[OptimisticEngine, StepStats], None] | None" = None,
        cost_model=None,
        recorder=None,
        metrics=None,
        profiler=None,
        engine: "str | None" = None,
    ) -> None:
        self.policy = policy
        super().__init__(
            workset,
            operator,
            controller,
            UnorderedCommitOrder(policy),
            seed=seed,
            step_hook=step_hook,
            cost_model=cost_model,
            recorder=recorder,
            metrics=metrics,
            profiler=profiler,
            engine=engine,
        )
