"""High-level facade — config-driven runs and Galois-style loops.

The canonical entry point is :func:`run`, which executes a typed
:class:`repro.config.RunConfig` by resolving its named parts against
:mod:`repro.registry`::

    from repro import RunConfig, run

    result = run(RunConfig(workload="consuming", rho=0.25, seed=0),
                 graph=my_graph)
    report = run(RunConfig(experiment="fig3", quick=True))

For users who want the paper's machinery without a config object,
:func:`for_each` mirrors Galois' ``for_each`` (unordered amorphous
data-parallel loop with adaptive processor allocation),
:func:`for_each_ordered` the ordered variant, and :func:`solve_graph`
runs the controller over an explicit CC graph directly — all three are
thin wrappers over :func:`run`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.config import RunConfig
from repro.control.base import Controller
from repro.errors import ConfigError, ReproError
from repro.graph.ccgraph import CCGraph
from repro.registry import (
    CONFLICT_POLICIES,
    CONTROLLERS,
    EXPERIMENTS,
    ORDER_POLICIES,
    WORKLOADS,
    order_family,
    parse_order_spec,
    parse_workload_spec,
    select_backend_for,
    workload_is_self_building,
    workset_for,
)
from repro.runtime.core import Engine
from repro.runtime.ordered import OrderedEngine, PriorityWorkset
from repro.runtime.stats import RunResult
from repro.runtime.task import Operator, Task

__all__ = ["run", "for_each", "for_each_ordered", "solve_graph"]


def _wrap_tasks(items: Iterable[object]) -> list[Task]:
    return [item if isinstance(item, Task) else Task(payload=item) for item in items]


def _coerce_config(config) -> RunConfig:
    if isinstance(config, RunConfig):
        return config
    if isinstance(config, dict):
        return RunConfig.from_dict(config)
    hint = (
        f"; for an experiment use run(RunConfig(experiment={config!r}))"
        if isinstance(config, str)
        else ""
    )
    raise ConfigError(
        f"run() takes a RunConfig or a config dict, got {type(config).__name__}{hint}"
    )


def _controller_for(config: RunConfig, controller: "Controller | None") -> Controller:
    return controller if controller is not None else CONTROLLERS.create(
        config.controller, config
    )


def _order_engine(config, order, workset, operator, controller, seed, recorder, metrics):
    """Core :class:`Engine` over an explicit commit-order policy."""
    return Engine(
        workset=workset,
        operator=operator,
        controller=controller,
        order=order,
        seed=seed,
        recorder=recorder,
        metrics=metrics,
        engine=config.engine,
    )


def run(
    config,
    *,
    graph: "CCGraph | None" = None,
    initial: "Iterable | None" = None,
    operator: "Operator | None" = None,
    priority_of: "Callable[[Task], float] | None" = None,
    controller: "Controller | None" = None,
    seed=None,
    recorder=None,
    metrics=None,
    record_workload: "str | None" = None,
):
    """Execute one :class:`~repro.config.RunConfig`.

    Three mutually exclusive shapes, selected by the config and the
    keyword inputs:

    * ``config.experiment`` set — run that registered experiment and
      return its :class:`~repro.experiments.base.ExperimentResult`;
    * ``graph=`` given — build the configured workload
      (``config.workload``) over the graph, wire the configured
      controller, and return the engine's
      :class:`~repro.runtime.stats.RunResult`.  Self-building workloads
      — the applications (``workload="boruvka"`` …, which synthesise a
      seeded input) and trace replays (``workload="trace:<path>"``) —
      also run with no ``graph=`` at all;
    * ``initial=`` + ``operator=`` given — run a task loop
      (:class:`~repro.runtime.engine.OptimisticEngine`, or
      :class:`~repro.runtime.ordered.OrderedEngine` when
      ``priority_of=`` is supplied) and return its ``RunResult``.

    ``record_workload=`` (graph/workload runs only) wraps the workload
    in a :class:`~repro.runtime.wktrace.WorkloadCapture` and saves the
    recorded :class:`~repro.runtime.wktrace.WorkloadTrace` to that path
    after the run, for later ``workload="trace:<path>"`` replays.

    ``config.order`` selects the commit-order policy
    (``"unordered"``, ``"ordered"``, ``"relaxed:k"``, ``"async[:w]"`` or
    a registered third-party name): the run then executes on the
    step-pipeline core :class:`~repro.runtime.core.Engine` with that
    policy, over the work-set family the policy requires (graph runs
    rank tasks by node id; ordered/relaxed task loops need
    ``priority_of=``).  ``order=None`` keeps the historical engine
    classes.

    All names (``workload``, ``controller``, ``conflict``, ``order``,
    ``experiment``) resolve through :mod:`repro.registry`, so anything a
    third party has :func:`repro.register`-ed is accepted.  An explicit
    *controller* instance overrides ``config.controller``; an explicit
    *seed* (which, unlike ``config.seed``, may be a
    ``numpy.random.Generator``) overrides ``config.seed``.  *config* may
    also be a config dict (see :meth:`RunConfig.from_dict`).
    """
    config = _coerce_config(config)
    seed = seed if seed is not None else config.seed
    if config.experiment is not None:
        return EXPERIMENTS.create(config.experiment, seed, config.quick)

    workload_name, workload_kwargs = parse_workload_spec(config.workload)
    if graph is not None or (
        initial is None and operator is None and workload_is_self_building(workload_name)
    ):
        if initial is not None or operator is not None:
            raise ConfigError("pass either graph= or initial=/operator=, not both")
        if workload_name == "replay" and config.max_steps is None:
            raise ReproError("replay workloads never drain; pass max_steps")
        workload = WORKLOADS.create(workload_name, graph, config, **workload_kwargs)
        if record_workload is not None:
            from repro.runtime.wktrace import WorkloadCapture

            workload = WorkloadCapture(workload, label=workload_name)
        if config.order is not None:
            # explicit commit order: the workload factory already matched
            # its work-set to the order family (workset_for), so only the
            # policy itself is built here.  Priority-family policies rank
            # tasks by the workload's own priority (event times for DES;
            # node id — the canonical graph priority — otherwise), and
            # every family shares the workload's conflict policy, so
            # ordered, relaxed and unordered runs detect the same
            # conflicts.
            name, kwargs = parse_order_spec(config.order)
            if record_workload is not None and name == "sharded":
                raise ConfigError(
                    "record_workload= is not supported under the sharded "
                    "commit order; record unsharded, then replay the trace "
                    "with shards=N"
                )
            if getattr(workload, "requires_order", False) and order_family(name) != "priority":
                raise ConfigError(
                    f"workload {workload_name!r} requires in-order commits "
                    f'(order="ordered" or "relaxed:k"), got order={config.order!r}'
                )
            if order_family(name) == "priority":
                priority_fn = getattr(workload, "priority_of", None)
                kwargs["priority_of"] = (
                    priority_fn
                    if priority_fn is not None
                    else (lambda task: float(task.payload))
                )
            if (
                name == "sharded"
                and "shards" not in kwargs
                and config.shards is not None
            ):
                kwargs["shards"] = config.shards
            order = ORDER_POLICIES.create(
                name, conflict_policy=workload.policy, **kwargs
            )
            engine = _order_engine(
                config,
                order,
                workload.workset,
                workload.operator,
                _controller_for(config, controller),
                seed,
                recorder,
                metrics,
            )
        else:
            engine = workload.make_engine(
                _controller_for(config, controller),
                seed=seed,
                recorder=recorder,
                metrics=metrics,
                engine=config.engine,
            )
        result = engine.run(max_steps=config.max_steps)
        if record_workload is not None:
            workload.save(record_workload)
        return result

    if initial is not None:
        if operator is None:
            raise ConfigError("initial= also needs operator=")
        order_spec = config.order
        if order_spec is not None:
            order_name, order_kwargs = parse_order_spec(order_spec)
            family = order_family(order_name)
        if priority_of is not None:
            if order_spec is not None and family != "priority":
                raise ConfigError(
                    f"order={order_spec!r} ignores priorities; "
                    "drop priority_of= or use an ordered/relaxed order"
                )
            pairs = list(initial)
            if not pairs:
                raise ReproError("for_each_ordered needs at least one initial task")
            workset = PriorityWorkset()
            for prio, item in pairs:
                task = item if isinstance(item, Task) else Task(payload=item)
                workset.add(task, float(prio))
            if order_spec is not None:
                # no conflict_policy: task loops get the default greedy
                # item locks over operator neighbourhoods, as the
                # OrderedEngine does, so relaxed:1 traces match its own
                order = ORDER_POLICIES.create(
                    order_name, priority_of=priority_of, **order_kwargs
                )
                engine = _order_engine(
                    config,
                    order,
                    workset,
                    operator,
                    _controller_for(config, controller),
                    seed,
                    recorder,
                    metrics,
                )
            else:
                engine = OrderedEngine(
                    workset=workset,
                    operator=operator,
                    controller=_controller_for(config, controller),
                    priority_of=priority_of,
                    seed=seed,
                    recorder=recorder,
                    metrics=metrics,
                    engine=config.engine,
                )
            return engine.run(max_steps=config.max_steps)
        tasks = _wrap_tasks(initial)
        if not tasks:
            raise ReproError("for_each needs at least one initial task")
        if order_spec is not None:
            if family == "priority":
                raise ConfigError(
                    f"order={order_spec!r} ranks tasks by priority; pass "
                    "priority_of= and (priority, payload) initial pairs"
                )
            workset = workset_for(config)
            workset.add_all(tasks)
            order = ORDER_POLICIES.create(
                order_name,
                conflict_policy=CONFLICT_POLICIES.create(config.conflict, config),
                **order_kwargs,
            )
            engine = _order_engine(
                config,
                order,
                workset,
                operator,
                _controller_for(config, controller),
                seed,
                recorder,
                metrics,
            )
            return engine.run(max_steps=config.max_steps)
        workset = select_backend_for(config)
        workset.add_all(tasks)
        from repro.runtime.engine import OptimisticEngine

        engine = OptimisticEngine(
            workset=workset,
            operator=operator,
            policy=CONFLICT_POLICIES.create(config.conflict, config),
            controller=_controller_for(config, controller),
            seed=seed,
            recorder=recorder,
            metrics=metrics,
            engine=config.engine,
        )
        return engine.run(max_steps=config.max_steps)

    raise ConfigError(
        "run() needs an experiment in the config, a graph=, initial=/operator=, "
        "or a self-building workload (an application name or trace:<path>)"
    )


def for_each(
    initial: Iterable[object],
    operator: Operator,
    rho: float = 0.25,
    controller: Controller | None = None,
    m_max: int = 1024,
    max_steps: int | None = None,
    seed=None,
    recorder=None,
    metrics=None,
) -> RunResult:
    """Run an unordered amorphous data-parallel loop to completion.

    *initial* seeds the work-set (plain payloads are wrapped into
    :class:`Task`); *operator* supplies neighbourhoods and commit
    behaviour; processor allocation adapts via Algorithm 1 targeting
    *rho* unless an explicit *controller* is given.  *recorder* /
    *metrics* attach an observability sink (see :mod:`repro.obs`); by
    default the process-wide active ones are used if set.
    """
    config = RunConfig(rho=rho, m_max=m_max, max_steps=max_steps, workload="consuming")
    return run(
        config,
        initial=initial,
        operator=operator,
        controller=controller,
        seed=seed,
        recorder=recorder,
        metrics=metrics,
    )


def for_each_ordered(
    initial: Iterable[tuple[float, object]],
    operator: Operator,
    priority_of: Callable[[Task], float],
    rho: float = 0.25,
    controller: Controller | None = None,
    m_max: int = 1024,
    max_steps: int | None = None,
    seed=None,
    recorder=None,
    metrics=None,
) -> RunResult:
    """Run an ordered loop: *initial* is ``(priority, payload)`` pairs.

    Commits respect priorities globally (see
    :class:`~repro.runtime.ordered.OrderedEngine`); *priority_of* must
    return the priority of any task the operator creates.
    """
    config = RunConfig(rho=rho, m_max=m_max, max_steps=max_steps, workload="consuming")
    return run(
        config,
        initial=initial,
        operator=operator,
        priority_of=priority_of,
        controller=controller,
        seed=seed,
        recorder=recorder,
        metrics=metrics,
    )


def solve_graph(
    graph: CCGraph,
    rho: float = 0.25,
    consuming: bool = True,
    controller: Controller | None = None,
    m_max: int = 1024,
    max_steps: int | None = None,
    seed=None,
    recorder=None,
    metrics=None,
) -> RunResult:
    """Run the controller directly over an explicit CC graph.

    ``consuming=True`` drains the graph (committed nodes disappear);
    ``consuming=False`` replays it as a stationary environment (cap the
    run with *max_steps*).
    """
    config = RunConfig(
        rho=rho,
        m_max=m_max,
        max_steps=max_steps,
        workload="consuming" if consuming else "replay",
    )
    return run(
        config,
        graph=graph,
        controller=controller,
        seed=seed,
        recorder=recorder,
        metrics=metrics,
    )
