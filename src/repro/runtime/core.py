"""The single step-pipeline core shared by every engine.

The paper's model is one discrete-time loop — the controller proposes an
allocation ``m_t``, a batch is drawn from the work-set, conflicts are
resolved, survivors commit, and the controller observes the realised
conflict ratio ``r_t``.  Historically that loop existed twice
(``runtime/engine.py`` and ``runtime/ordered.py``) and the two copies had
to be edited in lockstep.  This module is the one copy:

* :class:`Engine` owns the pipeline — phase spans, trace events, metric
  counters, cost accounting, retry tracking, and the controller
  hand-shake are emitted here and nowhere else;
* :class:`OrderPolicy` is the plugin seam — *what order the batch is
  drawn and committed in* (uniform-random vs priority order with
  barrier/horizon rules) is the only thing an engine variant supplies.

The concrete policies live in :mod:`repro.runtime.policies`;
:class:`~repro.runtime.engine.OptimisticEngine` and
:class:`~repro.runtime.ordered.OrderedEngine` are thin subclasses that
pick a policy and keep their historical constructor signatures.

Pipeline contract (one ``step()``)::

    controller.decide  ->  order.select  ->  order.execute  ->  order.apply
         (span)              (span)         (policy spans)      + bookkeeping
                                                               (core-owned span)

``order.execute`` resolves the batch into an outcome and owns the phase
spans of resolution; ``order.apply`` mutates the work-set (applying
committed operators or rolling back aborts) and runs — together with
everything downstream: retry counts, cost model, step stats, the
``step`` trace event, and metric counters — inside one core-opened span
named by :meth:`OrderPolicy.commit_span_name`, so timing attribution is
identical to the pre-core engines.  ``controller.observe`` follows in
its own ``controller.update`` span.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import TYPE_CHECKING

from repro.errors import RuntimeEngineError
from repro.runtime.active_set import ActiveSet
from repro.runtime.stats import RunResult, StepStats
from repro.runtime.workset import RandomWorkset

if TYPE_CHECKING:  # avoid runtime<->control import cycle; core only types it
    from repro.control.base import Controller
    from repro.runtime.task import Task

__all__ = [
    "Engine",
    "OrderPolicy",
    "new_workset",
    "resolve_engine_mode",
    "resolve_select_backend",
]

#: conflict-resolution paths; the first is the default
_ENGINE_MODES = ("reference", "fast")
#: built-in selection backends; the first is the default — the fastest
#: combination on every workload of the whole-run benchmark matrix
_SELECT_MODES = ("incremental", "workset")


def _resolve(value: "str | None", modes: "tuple[str, ...]", what: str) -> str:
    mode = modes[0] if value is None else str(value).strip().lower() or modes[0]
    if mode not in modes:
        raise RuntimeEngineError(f"unknown {what} {mode!r}; expected one of {modes}")
    return mode


def resolve_engine_mode(engine: "str | None") -> str:
    """Validate an ``engine=`` argument; ``None`` means ``"reference"``.

    ``"reference"`` resolves conflicts with the per-task Python walk,
    ``"fast"`` with the vectorised kernels of
    :mod:`repro.runtime.kernels`.  Both accept the same workloads and
    produce bit-identical results.
    """
    return _resolve(engine, _ENGINE_MODES, "engine mode")


def resolve_select_backend(select: "str | None") -> str:
    """Validate a built-in ``select=`` name; ``None`` means ``"incremental"``.

    ``"incremental"`` is the dense
    :class:`~repro.runtime.active_set.ActiveSet`, ``"workset"`` the
    reference :class:`~repro.runtime.workset.RandomWorkset`.  Both draw
    the same uniform ``π_m`` prefixes and are bit-identical under the
    same seed, so either may serve any workload on either engine mode.
    Third-party backends registered under ``"select-backend"`` in
    :mod:`repro.registry` are addressed by their registry name through
    :class:`repro.config.RunConfig` instead of this resolver.
    """
    return _resolve(select, _SELECT_MODES, "select backend")


def new_workset(select: "str | None" = None) -> "ActiveSet | RandomWorkset":
    """A fresh, empty work-set of the built-in backend *select* names.

    Every internal default work-set comes from here, so direct workload
    construction and :func:`repro.api.run` pick the same backend.
    """
    if resolve_select_backend(select) == "incremental":
        return ActiveSet()
    return RandomWorkset()


class OrderPolicy(ABC):
    """Commit-order plugin: everything engine variants disagree about.

    A policy is bound to exactly one :class:`Engine` (:meth:`bind`) and
    from then on reaches the work-set, operator, RNG, profiler and
    engine mode through ``self.engine``.  The core calls the hooks in a
    fixed sequence per step::

        begin_step -> select -> execute -> apply
                   -> (committed|aborted)_tasks
                   -> step_event_fields -> step_metrics

    :meth:`execute` only *resolves* the batch into an outcome;
    :meth:`apply` must be *transactional*: when it returns, committed
    operators have been applied (new work enqueued) and aborted tasks
    have been rolled back into the work-set, so the core's
    ``workset_after`` stat is exact.  The core wraps :meth:`apply` and
    all downstream bookkeeping in a span named by
    :meth:`commit_span_name`.
    """

    engine: "Engine"

    def bind(self, engine: "Engine") -> None:
        """Attach the policy to its engine (called once, from ``__init__``)."""
        self.engine = engine

    @abstractmethod
    def label(self) -> str:
        """Value of the ``policy`` field in the ``run_start`` trace event."""

    @abstractmethod
    def init_rng(self, seed) -> None:
        """Install ``engine.rng`` from the constructor *seed*."""

    def begin_step(self) -> None:
        """Hook at the top of every step (e.g. per-step RNG substreams)."""

    @abstractmethod
    def select(self, requested: int) -> list:
        """Draw ``min(requested, |workset|)`` entries in commit order."""

    @abstractmethod
    def execute(self, batch: list):
        """Resolve *batch* into an outcome (no work-set mutation of aborts).

        Opens its own resolution phase spans via
        ``self.engine.phase_span`` so timing attribution stays identical
        to the pre-core engines.  Work-set mutation that belongs to the
        commit/record phase happens in :meth:`apply`.
        """

    @abstractmethod
    def apply(self, outcome) -> None:
        """Apply the outcome to the work-set: commits applied, aborts
        rolled back (plus any policy-local abort accounting).  The core
        calls this inside the :meth:`commit_span_name` span."""

    def commit_span_name(self) -> str:
        """Name of the core-opened span wrapping :meth:`apply` and the
        step bookkeeping (``"commit"`` historically for the unordered
        engine, ``"record"`` for the ordered one)."""
        return "commit"

    @abstractmethod
    def committed_tasks(self, outcome) -> "list[Task]":
        """The outcome's committed tasks (bare, without priorities)."""

    @abstractmethod
    def aborted_tasks(self, outcome) -> "list[Task]":
        """Every aborted task of the outcome, regardless of abort kind."""

    @abstractmethod
    def step_event_fields(self, batch: list, outcome) -> dict:
        """Policy-specific fields of the ``step`` trace event."""

    def step_metrics(self, metrics, outcome) -> None:
        """Extra per-step counters (emitted between ``aborts`` and
        ``launched`` to preserve the historical registry ordering)."""

    def run_end_fields(self) -> dict:
        """Policy-specific fields of the ``run_end`` trace event."""
        return {}


class Engine:
    """The step-pipeline core: one loop, pluggable commit order.

    Parameters
    ----------
    workset, operator:
        The workload: pending tasks and their semantics.  The work-set
        type must match the policy (:class:`~repro.runtime.workset.Workset`
        for unordered, :class:`~repro.runtime.policies.PriorityWorkset`
        for ordered).
    controller:
        Decides ``m_t`` each step from past observations (any
        :class:`~repro.control.base.Controller`).
    order:
        The :class:`OrderPolicy` implementing batch draw and commit
        order.
    seed:
        RNG seed / generator; interpretation is policy-specific (the
        ordered policy derives per-step substreams from it).
    step_hook:
        Optional callable invoked as ``step_hook(engine, stats)`` after
        every step.
    cost_model:
        Optional :class:`~repro.runtime.costs.CostModel` pricing commits
        and aborts; totals accumulate in :attr:`costs`.  Defaults to the
        paper's unit costs.
    recorder, metrics, profiler:
        Optional :class:`~repro.obs.TraceRecorder` /
        :class:`~repro.obs.MetricsRegistry` /
        :class:`~repro.obs.SpanProfiler`.  When omitted, the engine
        attaches to the process-wide active ones if set (see
        :func:`repro.obs.recording`, :func:`repro.obs.profiling`), else
        records nothing.
    engine:
        ``"reference"`` (per-task Python walk) or ``"fast"`` (vectorised
        kernels, see :mod:`repro.runtime.kernels`); ``None`` means
        ``"reference"``.  The two paths are bit-identical — same seeds
        give the same commits, aborts, and observability traces.
    """

    def __init__(
        self,
        workset,
        operator,
        controller: "Controller",
        order: OrderPolicy,
        *,
        seed=None,
        step_hook=None,
        cost_model=None,
        recorder=None,
        metrics=None,
        profiler=None,
        engine: "str | None" = None,
    ) -> None:
        from repro.obs.metrics import active_metrics
        from repro.obs.recorder import active_recorder, describe_seed
        from repro.obs.spans import NULL_SPAN, active_profiler
        from repro.runtime.costs import CostTotals, UnitCostModel

        if not isinstance(order, OrderPolicy):
            raise RuntimeEngineError(
                f"order must be an OrderPolicy, got {type(order).__name__}"
            )
        self.workset = workset
        self.operator = operator
        self.controller = controller
        self.order = order
        self.engine_mode = resolve_engine_mode(engine)
        self.step_hook = step_hook
        self.cost_model = cost_model or UnitCostModel()
        self.costs = CostTotals()
        self.result = RunResult()
        # per-task abort counts: starvation diagnostics (optimistic
        # runtimes can in principle retry one unlucky task forever);
        # a Counter so batched increments run at C speed
        self.retry_counts: Counter[int] = Counter()
        self._step = 0
        self.recorder = recorder if recorder is not None else active_recorder()
        registry = metrics if metrics is not None else active_metrics()
        self.metrics = None if registry is None else registry.scope("engine")
        self.profiler = profiler if profiler is not None else active_profiler()
        # stashed no-op span: the disabled path costs one None test plus
        # entering this shared stateless context manager per phase
        self._null_span = NULL_SPAN
        order.bind(self)
        order.init_rng(seed)
        if self.recorder is not None or self.metrics is not None:
            controller.bind_observability(
                self.recorder,
                None if registry is None else registry.scope("controller"),
            )
        if self.recorder is not None:
            self.recorder.emit(
                "run_start",
                step=self._step,
                engine=type(self).__name__,
                policy=order.label(),
                seed=describe_seed(seed),
                workset_size=len(workset),
                controller=controller.describe(),
            )

    # ------------------------------------------------------------------
    def phase_span(self, name: str):
        """A profiler span for one pipeline phase (no-op when disabled)."""
        prof = self.profiler
        return prof.span(name) if prof is not None else self._null_span

    def step(self) -> StepStats:
        """Execute one temporal step; raises if the work-set is empty."""
        before = len(self.workset)
        if before == 0:
            raise RuntimeEngineError("cannot step: work-set is empty")
        prof = self.profiler
        null = self._null_span
        order = self.order
        with prof.step_span(self._step) if prof is not None else null:
            order.begin_step()
            with prof.span("controller.decide") if prof is not None else null:
                requested = int(self.controller.propose())
            if requested < 1:
                raise RuntimeEngineError(
                    f"controller proposed m={requested}; allocations must be >= 1"
                )
            with prof.span("select") if prof is not None else null:
                batch = order.select(requested)
                if self.recorder is not None:
                    self.recorder.emit(
                        "select",
                        step=self._step,
                        requested=requested,
                        taken=len(batch),
                        workset_before=before,
                    )
            outcome = order.execute(batch)  # opens the policy's resolve spans
            with prof.span(order.commit_span_name()) if prof is not None else null:
                order.apply(outcome)
                committed = order.committed_tasks(outcome)
                aborted = order.aborted_tasks(outcome)
                retries = self.retry_counts
                if aborted:
                    retries.update([task.uid for task in aborted])
                for task in committed:
                    retries.pop(task.uid, None)  # made it; stop tracking
                self.cost_model.charge(self.costs, committed, aborted)
                stats = StepStats(
                    step=self._step,
                    requested=requested,
                    launched=outcome.launched,
                    committed=len(committed),
                    aborted=len(aborted),
                    workset_before=before,
                    workset_after=len(self.workset),
                )
                if self.recorder is not None:
                    self.recorder.emit(
                        "step",
                        **order.step_event_fields(batch, outcome),
                        **stats.as_dict(),
                    )
                if self.metrics is not None:
                    self.metrics.counter("steps").inc()
                    self.metrics.counter("commits").inc(stats.committed)
                    self.metrics.counter("aborts").inc(stats.aborted)
                    order.step_metrics(self.metrics, outcome)
                    self.metrics.counter("launched").inc(stats.launched)
                    self.metrics.histogram("conflict_ratio").observe(
                        stats.conflict_ratio
                    )
                    self.metrics.gauge("workset").set(stats.workset_after)
                    self.metrics.gauge("m").set(requested)
            self._step += 1
            with prof.span("controller.update") if prof is not None else null:
                self.controller.observe(stats.conflict_ratio, outcome.launched)
        self.result.append(stats)
        if self.step_hook is not None:
            self.step_hook(self, stats)
        return stats

    def run(self, max_steps: int | None = None) -> RunResult:
        """Step until the work-set drains (or *max_steps* is reached)."""
        if max_steps is not None and max_steps < 0:
            raise RuntimeEngineError(f"max_steps must be >= 0, got {max_steps}")
        while len(self.workset) > 0:
            if max_steps is not None and self._step >= max_steps:
                break
            self.step()
        if self.recorder is not None:
            self.recorder.emit(
                "run_end",
                step=self._step,
                steps=len(self.result),
                committed=self.result.total_committed,
                aborted=self.result.total_aborted,
                **self.order.run_end_fields(),
                workset=len(self.workset),
            )
        return self.result

    @property
    def steps_executed(self) -> int:
        return self._step

    def max_pending_retries(self) -> int:
        """Largest abort count among tasks that have not yet committed.

        A starvation indicator: with the random-permutation scheduler each
        pending task eventually wins its conflicts w.p. 1, but heavy
        contention shows up here long before it shows in the ratios.
        """
        return max(self.retry_counts.values(), default=0)
