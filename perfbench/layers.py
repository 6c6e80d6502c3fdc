"""Per-layer attribution by timing calls into each layer's public functions.

The traced leg of the benchmark patches a fixed set of public functions
of the program with timing wrappers for the duration of one run and
restores them afterwards; nothing under ``src/`` changes.  Each wrapper
records, for its span name:

* ``seconds`` — wall time inside the call (re-entrant calls into the
  same span, e.g. a fast resolver falling back to the reference one,
  are not counted twice);
* ``calls`` — number of outermost calls;
* ``units`` — an optional work count taken from the result (tasks drawn
  by a work-set);
* ``child`` — the part of ``seconds`` covered by other spans opened
  inside the call, so ``seconds - child`` is the span's self time;
* ``first`` — the duration of the first call.

Time spent in spans opened while no other span is open is the *top-level*
time; ``top / run_s`` is the trace coverage.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    seconds: float = 0.0
    calls: int = 0
    units: int = 0
    child: float = 0.0
    first: "float | None" = None
    active: bool = False


class Tracer:
    """Span accumulator plus the patching that feeds it."""

    def __init__(self) -> None:
        self.spans: "dict[str, Span]" = {}
        self.top = 0.0
        self._stack: "list[list[float]]" = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def wrap(self, name: str, fn, units=None):
        """*fn* timed under span *name*; ``units(result)`` counts work."""
        span = self.span(name)
        stack = self._stack

        def timed(*args, **kwargs):
            if span.active:
                return fn(*args, **kwargs)
            span.active = True
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                span.active = False
                span.seconds += elapsed
                span.calls += 1
                span.child += frame[0]
                if span.first is None:
                    span.first = elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top += elapsed
            if units is not None:
                span.units += units(result)
            return result

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attribute, span, units)`` targets.

        Class attributes are replaced on the class; attributes the owner
        only inherits or reaches through its class (a bound method of a
        registry instance) are shadowed and the shadow deleted on exit.
        A target the program no longer has is skipped: its span reads 0.
        """
        restore = []
        try:
            for owner, attr, name, units in targets:
                if not hasattr(owner, attr):
                    continue
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else None
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), units))
                restore.append((owner, attr, own, original))
            yield self
        finally:
            for owner, attr, own, original in reversed(restore):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)


def _taken(batch) -> int:
    return len(batch)


def setup_targets():
    """Spans of the input build (the ``setup_s`` leg)."""
    from repro.graph.ccgraph import CCGraph

    return [(CCGraph, "from_edges", "graph.build", None)]


def run_targets():
    """Spans of one ``api.run``/``run_sharded`` call, by layer."""
    from repro.apps.boruvka import BoruvkaMST
    from repro.control.base import Controller
    from repro.graph.ccgraph import CCGraph
    from repro.registry import WORKLOADS
    from repro.runtime.active_set import ActiveSet
    from repro.runtime.conflict import ExplicitGraphPolicy, ItemLockPolicy
    from repro.runtime.core import Engine
    from repro.runtime.policies import UnorderedCommitOrder
    from repro.runtime.sharded import ShardPool
    from repro.runtime.workset import RandomWorkset

    targets = [
        (WORKLOADS, "create", "workloads.init", None),
        (Engine, "step", "core.step", None),
        (Controller, "propose", "control", None),
        (Controller, "observe", "control", None),
        (RandomWorkset, "take", "workset.take", _taken),
        (ActiveSet, "take", "workset.take", _taken),
        (UnorderedCommitOrder, "apply", "policies.apply", None),
        (CCGraph, "snapshot", "graph.snapshot", None),
        (CCGraph, "csr", "graph.view", None),
        (CCGraph, "conflict_view", "graph.view", None),
        (BoruvkaMST, "neighborhood", "apps.neighborhood", None),
        (BoruvkaMST, "apply", "apps.apply", None),
        (ShardPool, "resolve", "sharded.round", None),
        (ShardPool, "close", "sharded.close", None),
    ]
    for policy in (ExplicitGraphPolicy, ItemLockPolicy):
        for method in ("resolve", "resolve_fast"):
            targets.append((policy, method, "conflict.resolve", None))
    for method in ("add_node", "add_edge", "remove_edge", "remove_node"):
        targets.append((CCGraph, method, "graph.morph", None))
    return targets


#: per-layer metrics read off the spans: name -> (span, field, unit)
SPAN_METRICS = {
    "graph.build_s": ("graph.build", "seconds", "s"),
    "graph.snapshot_s": ("graph.snapshot", "seconds", "s"),
    "graph.snapshot_calls": ("graph.snapshot", "calls", "calls"),
    "graph.view_s": ("graph.view", "seconds", "s"),
    "graph.view_calls": ("graph.view", "calls", "calls"),
    "graph.morph_s": ("graph.morph", "seconds", "s"),
    "graph.morph_calls": ("graph.morph", "calls", "calls"),
    "workloads.init_s": ("workloads.init", "seconds", "s"),
    "workset.take_s": ("workset.take", "seconds", "s"),
    "workset.taken": ("workset.take", "units", "tasks"),
    "conflict.resolve_s": ("conflict.resolve", "seconds", "s"),
    "conflict.resolve_calls": ("conflict.resolve", "calls", "calls"),
    "policies.apply_s": ("policies.apply", "seconds", "s"),
    "apps.neighborhood_s": ("apps.neighborhood", "seconds", "s"),
    "apps.neighborhood_calls": ("apps.neighborhood", "calls", "calls"),
    "apps.apply_s": ("apps.apply", "seconds", "s"),
    "apps.apply_calls": ("apps.apply", "calls", "calls"),
    "core.step_s": ("core.step", "seconds", "s"),
    "core.steps": ("core.step", "calls", "steps"),
    "core.self_s": ("core.step", "self", "s"),
    "control.s": ("control", "seconds", "s"),
    "control.calls": ("control", "calls", "calls"),
    "sharded.round_s": ("sharded.round", "seconds", "s"),
    "sharded.rounds": ("sharded.round", "calls", "rounds"),
    "sharded.first_round_s": ("sharded.round", "first", "s"),
    "sharded.close_s": ("sharded.close", "seconds", "s"),
}


def span_metrics(tracer: Tracer) -> "dict[str, float]":
    """The :data:`SPAN_METRICS` values of one traced run (0 if unused)."""
    values = {}
    for metric, (name, field, _unit) in SPAN_METRICS.items():
        span = tracer.spans.get(name, Span())
        if field == "self":
            value = span.seconds - span.child
        elif field == "first":
            value = span.first or 0.0
        else:
            value = getattr(span, field)
        values[metric] = float(value)
    return values
