"""Plugin registry: named factories for every pluggable layer.

One :class:`Registry` per extension point — engines, order policies,
controllers, conflict policies, workloads, experiments — each mapping a
stable string name to a factory callable.  The built-in entries populate
lazily on first lookup (keeping this module import-light and cycle-free);
third parties add their own with :func:`register`::

    import repro

    @repro.register("controller", "my-controller")
    def _make(config):          # factory receives the RunConfig
        return MyController(config.rho, m_max=config.m_max)

    repro.run(repro.RunConfig(workload="consuming", controller="my-controller"),
              graph=my_graph)

Factory calling conventions (what ``repro.api.run`` passes):

========================  ==================================================
registry                  factory signature
========================  ==================================================
``"experiment"``          ``factory(seed, quick) -> ExperimentResult``
``"controller"``          ``factory(config: RunConfig) -> Controller``
``"conflict-policy"``     ``factory(config: RunConfig) -> ConflictPolicy``
``"workload"``            ``factory(graph, config: RunConfig) -> workload``
``"select-backend"``      ``factory(config: RunConfig) -> Workset``
``"order-policy"``        ``factory(**kwargs) -> OrderPolicy``
``"engine"``              ``factory(...) -> Engine`` (constructor passthrough)
========================  ==================================================

Lookup failures are actionable: an unknown name raises
:class:`~repro.errors.RegistryError` listing every available entry, and
duplicate registration raises instead of silently clobbering (pass
``overwrite=True`` to replace deliberately, e.g. in tests).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.errors import RegistryError

__all__ = [
    "Registry",
    "register",
    "registry",
    "select_backend_for",
    "parse_order_spec",
    "parse_workload_spec",
    "workload_is_self_building",
    "order_family",
    "workset_for",
    "ENGINES",
    "ORDER_POLICIES",
    "CONTROLLERS",
    "CONFLICT_POLICIES",
    "SELECT_BACKENDS",
    "WORKLOADS",
    "EXPERIMENTS",
]


class Registry:
    """Mapping of stable names to factory callables, with lazy seeding.

    *populate*, when given, is called once — on first lookup or
    mutation — with the registry itself and installs the built-in
    entries.  This keeps ``import repro.registry`` free of heavy imports
    and of cycles with the layers whose classes it names.
    """

    def __init__(self, kind: str, populate: "Callable[[Registry], None] | None" = None):
        self.kind = kind
        self._entries: dict[str, Callable] = {}
        self._populate = populate
        self._populated = populate is None

    # -- lazy seeding ---------------------------------------------------
    def _ensure_populated(self) -> None:
        if not self._populated:
            self._populated = True  # set first: populate() calls register()
            self._populate(self)

    # -- mutation -------------------------------------------------------
    def register(
        self,
        name: str,
        factory: "Callable | None" = None,
        *,
        overwrite: bool = False,
    ):
        """Register *factory* under *name*; usable as a decorator.

        Raises :class:`~repro.errors.RegistryError` if *name* is already
        taken (unless ``overwrite=True``) so two plugins cannot silently
        shadow each other.
        """
        if factory is None:  # decorator form: @REG.register("name")
            def _decorator(fn: Callable) -> Callable:
                self.register(name, fn, overwrite=overwrite)
                return fn

            return _decorator
        if not isinstance(name, str) or not name:
            raise RegistryError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        if not callable(factory):
            raise RegistryError(
                f"{self.kind} factory for {name!r} must be callable, "
                f"got {type(factory).__name__}"
            )
        self._ensure_populated()
        if name in self._entries and not overwrite:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self._entries[name] = factory
        return factory

    def unregister(self, name: str) -> None:
        """Remove *name* (missing names raise, like :meth:`get`)."""
        self._ensure_populated()
        if name not in self._entries:
            raise RegistryError(self._unknown_message(name))
        del self._entries[name]

    # -- lookup ---------------------------------------------------------
    def _unknown_message(self, name: str) -> str:
        available = ", ".join(sorted(self._entries)) or "(none registered)"
        return f"unknown {self.kind} {name!r}; available: {available}"

    def get(self, name: str) -> Callable:
        """The factory registered under *name*.

        Unknown names raise with the full sorted list of available
        entries — the error is the documentation.
        """
        self._ensure_populated()
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(self._unknown_message(name)) from None

    def create(self, name: str, *args, **kwargs):
        """Look up *name* and call its factory with the given arguments."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> list[str]:
        """Sorted names of every registered entry."""
        self._ensure_populated()
        return sorted(self._entries)

    # -- mapping protocol (read-only views) ------------------------------
    def __contains__(self, name: object) -> bool:
        self._ensure_populated()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_populated()
        return len(self._entries)

    def __repr__(self) -> str:
        state = f"{len(self._entries)} entries" if self._populated else "unpopulated"
        return f"Registry(kind={self.kind!r}, {state})"


# ----------------------------------------------------------------------
# built-in entries (imports deferred into the populate hooks)
# ----------------------------------------------------------------------
def _populate_engines(reg: Registry) -> None:
    from repro.runtime.engine import OptimisticEngine
    from repro.runtime.ordered import OrderedEngine

    reg.register("optimistic", OptimisticEngine)
    reg.register("ordered", OrderedEngine)


def _populate_order_policies(reg: Registry) -> None:
    from repro.runtime.policies import (
        AsyncCommitOrder,
        OrderedCommitOrder,
        RelaxedCommitOrder,
        ShardedCommitOrder,
        UnorderedCommitOrder,
    )

    reg.register("unordered", UnorderedCommitOrder)
    reg.register("ordered", OrderedCommitOrder)
    reg.register("relaxed", RelaxedCommitOrder)
    reg.register("async", AsyncCommitOrder)
    reg.register("sharded", ShardedCommitOrder)


#: numeric-suffix parameter of each built-in order spec ("relaxed:4" ->
#: RelaxedCommitOrder(k=4), "async:8" -> AsyncCommitOrder(window=8),
#: "sharded:4" -> ShardedCommitOrder(shards=4))
_ORDER_SPEC_PARAMS = {"relaxed": "k", "async": "window", "sharded": "shards"}

#: which work-set family each built-in order policy draws from; names
#: absent here (third-party policies) default to the unordered family.
#: "sharded" stays in the unordered family: its batch is the same global
#: uniform draw — only conflict *resolution* is partitioned.
_ORDER_FAMILIES = {
    "unordered": "unordered",
    "ordered": "priority",
    "relaxed": "priority",
    "async": "arrival",
    "sharded": "unordered",
}


def parse_order_spec(order: str) -> "tuple[str, dict]":
    """Split an ``order=`` spec into ``(registry name, factory kwargs)``.

    ``"relaxed:4"`` parses to ``("relaxed", {"k": 4})`` and
    ``"async:8"`` to ``("async", {"window": 8})``; bare ``"async"``
    keeps the policy's default window, while bare ``"relaxed"`` is
    rejected — a relaxation without a depth is meaningless.  Names that
    take no parameter reject a suffix; anything else (including exotic
    third-party names containing ``":"``) passes through verbatim for
    the ``"order-policy"`` registry to accept or reject.
    """
    from repro.errors import ConfigError

    if not isinstance(order, str) or not order:
        raise ConfigError(f"order spec must be a non-empty string, got {order!r}")
    name, sep, suffix = order.partition(":")
    if name == "relaxed" and not sep:
        raise ConfigError(
            'order="relaxed" needs a depth, e.g. "relaxed:4" '
            "(k=1 is the strict ordered policy)"
        )
    if not sep:
        return order, {}
    param = _ORDER_SPEC_PARAMS.get(name)
    if param is None:
        if name in _ORDER_FAMILIES:
            raise ConfigError(f"order policy {name!r} takes no parameter, got {order!r}")
        return order, {}  # third-party name that happens to contain ":"
    try:
        value = int(suffix)
    except ValueError:
        raise ConfigError(
            f"order spec {order!r} needs an integer {param}, got {suffix!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"order spec {order!r} needs {param} >= 1, got {value}")
    return name, {param: value}


def parse_workload_spec(workload: str) -> "tuple[str, dict]":
    """Split a ``workload=`` spec into ``(registry name, factory kwargs)``.

    ``"boruvka:500"`` parses to ``("boruvka", {"scale": 500})`` — the
    app at problem size 500 — and ``"trace:runs/boruvka.jsonl"`` to
    ``("trace", {"path": "runs/boruvka.jsonl"})``, a recorded workload
    trace to replay.  Plain names pass through, as do third-party names
    that happen to contain ``":"``.
    """
    from repro.errors import ConfigError

    if not isinstance(workload, str) or not workload:
        raise ConfigError(
            f"workload spec must be a non-empty string, got {workload!r}"
        )
    name, sep, suffix = workload.partition(":")
    if not sep:
        return workload, {}
    if name == "trace":
        if not suffix:
            raise ConfigError('workload="trace:<path>" needs a trace file path')
        return name, {"path": suffix}
    from repro.apps.catalog import APP_WORKLOADS

    if name in APP_WORKLOADS:
        try:
            value = int(suffix)
        except ValueError:
            raise ConfigError(
                f"workload spec {workload!r} needs an integer scale, got {suffix!r}"
            ) from None
        if value < 1:
            raise ConfigError(
                f"workload spec {workload!r} needs scale >= 1, got {value}"
            )
        return name, {"scale": value}
    return workload, {}  # third-party name that happens to contain ":"


def workload_is_self_building(name: str) -> bool:
    """Workloads that build their own input (``api.run`` takes ``graph=None``).

    True for the application workloads (which synthesise a seeded input
    when none is given) and for ``"trace"`` replays (which rebuild their
    state from the recorded file).
    """
    from repro.apps.catalog import APP_WORKLOADS

    return name == "trace" or name in APP_WORKLOADS


def order_family(name: str) -> str:
    """Work-set family of an order-policy name.

    ``"unordered"`` (bag with uniform draw), ``"priority"``
    (:class:`~repro.runtime.policies.PriorityWorkset`), or ``"arrival"``
    (:class:`~repro.runtime.workset.ArrivalWorkset`).  Third-party names
    default to ``"unordered"``, the family whose work-set protocol any
    :class:`~repro.runtime.workset.Workset` satisfies.
    """
    return _ORDER_FAMILIES.get(name, "unordered")


def workset_for(config) -> "object":
    """Work-set instance matching ``config.order`` (and ``config.select``).

    Unordered-family orders (including ``order=None``) resolve through
    :func:`select_backend_for`; priority-family orders get a fresh
    :class:`~repro.runtime.policies.PriorityWorkset` and arrival-family
    orders an :class:`~repro.runtime.workset.ArrivalWorkset`.
    """
    order = getattr(config, "order", None)
    if order is None:
        return select_backend_for(config)
    name, _ = parse_order_spec(order)
    family = order_family(name)
    if family == "priority":
        from repro.runtime.policies import PriorityWorkset

        return PriorityWorkset()
    if family == "arrival":
        from repro.runtime.workset import ArrivalWorkset

        return ArrivalWorkset()
    return select_backend_for(config)


def _populate_controllers(reg: Registry) -> None:
    # every factory takes the RunConfig and honours (rho, m, m_min, m_max)
    # where the controller supports them
    from repro.control.adaptive import NoiseAdaptiveHybridController
    from repro.control.aimd import AIMDController
    from repro.control.asteal import AStealController
    from repro.control.bisection import BisectionController
    from repro.control.fixed import FixedController
    from repro.control.hybrid import HybridController
    from repro.control.pid import PIController
    from repro.control.recurrence import RecurrenceAController, RecurrenceBController

    def _range_kwargs(config) -> dict:
        kwargs = {"m_max": config.m_max}
        if config.m_min is not None:
            kwargs["m_min"] = config.m_min
        return kwargs

    reg.register("hybrid", lambda config: HybridController(config.rho, **_range_kwargs(config)))
    reg.register("aimd", lambda config: AIMDController(config.rho, **_range_kwargs(config)))
    reg.register("pi", lambda config: PIController(config.rho, **_range_kwargs(config)))
    reg.register(
        "bisection",
        lambda config: BisectionController(config.rho, **_range_kwargs(config)),
    )
    reg.register(
        "recurrence-a",
        lambda config: RecurrenceAController(config.rho, **_range_kwargs(config)),
    )
    reg.register(
        "recurrence-b",
        lambda config: RecurrenceBController(config.rho, **_range_kwargs(config)),
    )
    reg.register(
        "noise-adaptive",
        lambda config: NoiseAdaptiveHybridController(config.rho, **_range_kwargs(config)),
    )
    reg.register(
        "asteal", lambda config: AStealController(config.rho, **_range_kwargs(config))
    )

    def _fixed(config):
        from repro.errors import ConfigError

        if config.m is None:
            raise ConfigError('controller="fixed" needs an explicit m in the RunConfig')
        return FixedController(config.m)

    reg.register("fixed", _fixed)


def _populate_conflict_policies(reg: Registry) -> None:
    from repro.runtime.conflict import ExplicitGraphPolicy, ItemLockPolicy

    reg.register("item-lock", lambda config: ItemLockPolicy())
    reg.register("explicit-graph", lambda config: ExplicitGraphPolicy())


def _populate_select_backends(reg: Registry) -> None:
    from repro.runtime.active_set import ActiveSet
    from repro.runtime.workset import RandomWorkset

    reg.register("workset", lambda config: RandomWorkset())
    reg.register("incremental", lambda config: ActiveSet())


def select_backend_for(config) -> "object":
    """Work-set instance for ``config.select``.

    ``None`` means the default backend
    (:func:`repro.runtime.core.resolve_select_backend`); explicit names —
    built-in or third-party — resolve through the ``"select-backend"``
    registry, whose unknown-name error lists every available backend.
    """
    from repro.runtime.core import resolve_select_backend

    name = config.select if config.select is not None else resolve_select_backend(None)
    return SELECT_BACKENDS.create(name, config)


def _populate_workloads(reg: Registry) -> None:
    from repro.runtime.workloads import (
        ConsumingGraphWorkload,
        RegeneratingGraphWorkload,
        ReplayGraphWorkload,
    )

    # workset_for matches the work-set to config.order (PriorityWorkset
    # for ordered/relaxed runs, ArrivalWorkset for async, the selection
    # backend otherwise); the workload seeds it accordingly
    reg.register(
        "replay",
        lambda graph, config: ReplayGraphWorkload(graph, workset=workset_for(config)),
    )
    reg.register(
        "consuming",
        lambda graph, config: ConsumingGraphWorkload(
            graph, workset=workset_for(config)
        ),
    )

    def _regenerating(graph, config):
        # keep n and mean degree stationary: regenerate at the current
        # average degree unless the workload is built directly
        target = max(1, round(graph.average_degree))
        return RegeneratingGraphWorkload(
            graph,
            target_degree=target,
            seed=config.seed,
            workset=workset_for(config),
        )

    reg.register("regenerating", _regenerating)

    # the application workloads: factory source may be None (the app
    # synthesises a seeded input), and the work-set again follows
    # config.order / config.select via workset_for
    from repro.apps.catalog import APP_WORKLOADS

    def _app_factory(app_name):
        def _make(graph, config, scale=None):
            from repro.apps.catalog import ORDERED_APPS, make_app_workload

            # ordered-only apps run on the historical OrderedEngine when
            # no explicit order= is configured — their own priority
            # work-set, not the unordered selection backend
            if app_name in ORDERED_APPS and getattr(config, "order", None) is None:
                workset = None
            else:
                workset = workset_for(config)
            return make_app_workload(
                app_name, graph, config, scale=scale, workset=workset
            )

        return _make

    for app_name in APP_WORKLOADS:
        reg.register(app_name, _app_factory(app_name))

    def _trace(graph, config, path=None):
        from repro.errors import ConfigError

        if path is None:
            raise ConfigError(
                'workload="trace" needs a recorded trace: workload="trace:<path>"'
            )
        if graph is not None:
            raise ConfigError(
                "trace workloads rebuild their state from the recording; "
                "pass graph=None"
            )
        from repro.runtime.wktrace import TraceReplayWorkload, WorkloadTrace

        trace = WorkloadTrace.load(path)
        # an ordered recording replayed without an explicit order= runs
        # on the OrderedEngine, which needs the replay's own priority
        # work-set rather than the unordered selection backend
        if trace.requires_order and getattr(config, "order", None) is None:
            workset = None
        else:
            workset = workset_for(config)
        return TraceReplayWorkload.from_trace(
            trace, path=path, workset=workset
        )

    reg.register("trace", _trace)


def _populate_experiments(reg: Registry) -> None:
    from repro.experiments.runner import DEFAULT_EXPERIMENTS

    for name, factory in DEFAULT_EXPERIMENTS.items():
        reg.register(name, factory)


ENGINES = Registry("engine", _populate_engines)
ORDER_POLICIES = Registry("order policy", _populate_order_policies)
CONTROLLERS = Registry("controller", _populate_controllers)
CONFLICT_POLICIES = Registry("conflict policy", _populate_conflict_policies)
SELECT_BACKENDS = Registry("select backend", _populate_select_backends)
WORKLOADS = Registry("workload", _populate_workloads)
EXPERIMENTS = Registry("experiment", _populate_experiments)

_REGISTRIES: dict[str, Registry] = {
    "engine": ENGINES,
    "order-policy": ORDER_POLICIES,
    "controller": CONTROLLERS,
    "conflict-policy": CONFLICT_POLICIES,
    "select-backend": SELECT_BACKENDS,
    "workload": WORKLOADS,
    "experiment": EXPERIMENTS,
}


def registry(kind: str) -> Registry:
    """The :class:`Registry` for *kind* (``"controller"``, ``"workload"`` …)."""
    try:
        return _REGISTRIES[kind]
    except KeyError:
        available = ", ".join(sorted(_REGISTRIES))
        raise RegistryError(
            f"unknown registry kind {kind!r}; available: {available}"
        ) from None


def register(kind: str, name: str, factory: "Callable | None" = None, *, overwrite: bool = False):
    """Register a third-party *factory* in the *kind* registry.

    Mirrors :meth:`Registry.register`, including the decorator form::

        @repro.register("experiment", "my-study")
        def _run(seed, quick):
            ...
    """
    return registry(kind).register(name, factory, overwrite=overwrite)
