"""Differential suite: the fast engine path must equal the reference path.

The correctness contract of the vectorised kernels
(:mod:`repro.runtime.kernels`) is *bit-identity*: for any seeded workload
and any controller, ``engine="fast"`` must produce exactly the commits,
aborts, step stats, and observability trace of ``engine="reference"``.
These tests enforce that contract across:

* workload shapes — stationary gnm replay, draining gnm, draining clique
  unions, and morphing (regenerating) graphs;
* every controller in :mod:`repro.control` with a standard constructor;
* both conflict policies (explicit CC graph and item locks) and the
  ordered engine.
"""

from __future__ import annotations

import pytest

from repro.control import (
    AIMDController,
    AStealController,
    BisectionController,
    FixedController,
    HybridController,
    NoiseAdaptiveHybridController,
    OracleController,
    PIController,
    ProbingHybridController,
    RecurrenceAController,
    RecurrenceBController,
)
from repro.errors import RuntimeEngineError
from repro.graph.generators import gnm_random, union_of_cliques
from repro.obs import TraceRecorder
from repro.runtime.conflict import ItemLockPolicy
from repro.runtime.engine import OptimisticEngine, resolve_engine_mode
from repro.runtime.task import Operator, Task
from repro.runtime.workloads import (
    ConsumingGraphWorkload,
    RegeneratingGraphWorkload,
    ReplayGraphWorkload,
)
from repro.runtime.workset import RandomWorkset

N = 120
SEED = 2011
MAX_STEPS = 35

WORKLOADS = {
    "gnm_replay": lambda select=None: ReplayGraphWorkload(
        gnm_random(N, 8, seed=SEED), select=select
    ),
    "gnm_consuming": lambda select=None: ConsumingGraphWorkload(
        gnm_random(N, 8, seed=SEED), select=select
    ),
    "clique_consuming": lambda select=None: ConsumingGraphWorkload(
        union_of_cliques(20, 6), select=select
    ),
    "morphing": lambda select=None: RegeneratingGraphWorkload(
        gnm_random(N, 6, seed=SEED), target_degree=6, seed=7, select=select
    ),
}

CONTROLLERS = {
    "fixed": lambda: FixedController(12),
    "hybrid": lambda: HybridController(0.25, m_max=64),
    "aimd": lambda: AIMDController(0.25, m_max=64),
    "asteal": lambda: AStealController(0.25, m_max=64),
    "bisection": lambda: BisectionController(0.25, m_max=64),
    "pi": lambda: PIController(0.25, m_max=64),
    "recurrence_a": lambda: RecurrenceAController(0.25, m_max=64),
    "recurrence_b": lambda: RecurrenceBController(0.25, m_max=64),
    "adaptive": lambda: NoiseAdaptiveHybridController(0.25, m_max=64),
    "probing": lambda: ProbingHybridController(0.25, n=N),
    "oracle": lambda: OracleController(10, m_max=64),
}


def _run(workload_key: str, controller_key: str, mode: str, select: "str | None" = None):
    """One seeded run; returns (jsonl trace, step-stat dicts)."""
    recorder = TraceRecorder()
    workload = WORKLOADS[workload_key](select=select)
    controller = CONTROLLERS[controller_key]()
    engine = workload.make_engine(
        controller, seed=SEED, recorder=recorder, engine=mode
    )
    engine.run(max_steps=MAX_STEPS)
    return recorder.to_jsonl(), [s.as_dict() for s in engine.result.steps]


class TestUnorderedDifferential:
    @pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
    @pytest.mark.parametrize("controller_key", sorted(CONTROLLERS))
    def test_fast_equals_reference(self, workload_key, controller_key):
        ref_trace, ref_steps = _run(workload_key, controller_key, "reference")
        fast_trace, fast_steps = _run(workload_key, controller_key, "fast")
        assert fast_steps == ref_steps
        assert fast_trace == ref_trace  # byte-identical obs traces

    def test_reference_run_not_degenerate(self):
        # the suite only means something if conflicts actually happen
        _, steps = _run("gnm_consuming", "fixed", "reference")
        assert sum(s["aborted"] for s in steps) > 0
        assert sum(s["committed"] for s in steps) > 0


class TestIncrementalSelectDifferential:
    """The incremental selection backend must be invisible in every trace.

    ``select="incremental"`` swaps the work-set onto :class:`ActiveSet`
    and the conflict policy onto memoised CSR deltas; byte-identical
    observability traces against the reference backend are the hard gate.
    """

    @pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_incremental_equals_workset(self, workload_key, mode):
        ref_trace, ref_steps = _run(workload_key, "hybrid", mode, select="workset")
        inc_trace, inc_steps = _run(workload_key, "hybrid", mode, select="incremental")
        assert inc_steps == ref_steps
        assert inc_trace == ref_trace  # byte-identical obs traces

    @pytest.mark.parametrize("controller_key", sorted(CONTROLLERS))
    def test_all_controllers_on_morphing_graph(self, controller_key):
        ref_trace, ref_steps = _run("morphing", controller_key, "fast", select="workset")
        inc_trace, inc_steps = _run(
            "morphing", controller_key, "fast", select="incremental"
        )
        assert inc_steps == ref_steps
        assert inc_trace == ref_trace


class TestSelectBackendSelection:
    def test_unknown_backend_rejected(self):
        from repro.runtime.core import resolve_select_backend

        with pytest.raises(RuntimeEngineError):
            resolve_select_backend("quantum")

    def test_default_is_incremental(self):
        from repro.runtime.core import resolve_select_backend

        assert resolve_select_backend(None) == "incremental"
        assert resolve_select_backend("workset") == "workset"

    def test_one_default_backend(self):
        # direct construction, the app layer, trace replays and the
        # registry path must all pick the backend api.run picks
        from repro import RunConfig
        from repro.apps import build_app_input, workload_from_input
        from repro.registry import select_backend_for
        from repro.runtime.active_set import ActiveSet

        from repro.apps.profiles import ScheduledReplayWorkload, step_profile
        from repro.runtime.wktrace import TraceReplayWorkload, WorkloadTrace

        app = workload_from_input("boruvka", build_app_input("boruvka", 10, seed=0))
        defaults = [
            ReplayGraphWorkload(gnm_random(20, 2, seed=0)).workset,
            app.workset,
            TraceReplayWorkload(WorkloadTrace()).workset,
            ScheduledReplayWorkload(step_profile(1, 2, 4, steps_per_phase=1)).workset,
            select_backend_for(RunConfig()),
        ]
        assert all(isinstance(workset, ActiveSet) for workset in defaults)
        workload = ReplayGraphWorkload(gnm_random(20, 2, seed=0), select="workset")
        assert isinstance(workload.workset, RandomWorkset)

    def test_select_and_workset_are_exclusive(self):
        with pytest.raises(RuntimeEngineError):
            ReplayGraphWorkload(
                gnm_random(20, 2, seed=0),
                select="incremental",
                workset=RandomWorkset(),
            )

    def test_api_run_honours_config_select(self):
        from repro import RunConfig
        from repro.api import run

        def result(select):
            res = run(
                RunConfig(workload="consuming", seed=5, max_steps=30, select=select),
                graph=gnm_random(80, 6, seed=3),
            )
            return [s.as_dict() for s in res.steps]

        assert result("incremental") == result("workset")

    def test_duck_typed_operator_without_apply_batch(self):
        # task loops accept any object with neighborhood/apply — the
        # batched commit path must fall back to the per-task walk for
        # operators that define neither apply_batch nor on_abort
        from repro import RunConfig
        from repro.api import run

        class DuckOp:
            def neighborhood(self, task):
                return [task.payload % 7]  # collisions force aborts

            def apply(self, task):
                return [Task(payload=task.payload + 100)] if task.payload < 50 else []

            def on_abort(self, task):
                pass

        def trace(select):
            res = run(
                RunConfig(workload="consuming", select=select, max_steps=400),
                initial=range(50),
                operator=DuckOp(),
                seed=11,
            )
            return [s.as_dict() for s in res.steps]

        assert trace("incremental") == trace("workset")

    def test_duck_typed_operator_without_on_abort(self):
        # no on_abort and no aborts (empty neighbourhoods): both the
        # commit fallback and the abort-override check must tolerate it
        from repro.api import for_each

        class MinimalOp:
            def neighborhood(self, task):
                return []

            def apply(self, task):
                return []

        res = for_each(range(30), MinimalOp(), max_steps=100, seed=2)
        assert res.total_committed == 30

    def test_registry_rejects_unknown_select_name(self):
        from repro import RunConfig
        from repro.api import run
        from repro.errors import RegistryError

        with pytest.raises(RegistryError):
            run(
                RunConfig(workload="consuming", select="quantum"),
                graph=gnm_random(10, 2, seed=0),
            )


class TestItemLockDifferential:
    class _ItemOperator(Operator):
        """Tasks lock overlapping item windows: payload i locks {i..i+3}."""

        def neighborhood(self, task):
            return [task.payload + k for k in range(4)]

        def apply(self, task):
            return []

    def _run(self, mode: str):
        workset = RandomWorkset()
        for i in range(80):
            workset.add(Task(payload=3 * i))  # windows overlap neighbours
        engine = OptimisticEngine(
            workset=workset,
            operator=self._ItemOperator(),
            policy=ItemLockPolicy(),
            controller=FixedController(16),
            seed=5,
            engine=mode,
        )
        engine.run(max_steps=25)
        return [s.as_dict() for s in engine.result.steps]

    def test_fast_equals_reference(self):
        assert self._run("fast") == self._run("reference")


class TestOrderedDifferential:
    @pytest.mark.parametrize("controller_key", ["fixed", "hybrid", "aimd"])
    def test_fast_equals_reference(self, controller_key):
        from repro.apps.des import DiscreteEventSimulation, QueueingNetwork

        network = QueueingNetwork(15, avg_degree=3.0, seed=3)

        def run(mode):
            sim = DiscreteEventSimulation(network, num_jobs=25, end_time=12.0, seed=5)
            engine = sim.make_engine(
                CONTROLLERS[controller_key](), seed=9, engine=mode
            )
            result = engine.run(max_steps=10**5)
            return sim.history, [s.as_dict() for s in result.steps]

        ref_history, ref_steps = run("reference")
        fast_history, fast_steps = run("fast")
        assert fast_steps == ref_steps
        assert fast_history == ref_history


class TestRelaxedDifferential:
    """Relaxed/async commit orders obey the same bit-identity contract."""

    ORDERS = ["ordered", "relaxed:1", "relaxed:4", "async", "async:4"]

    @staticmethod
    def _ordered_run(order: str, mode: str, workload: str = "gnm_consuming"):
        from repro import RunConfig
        from repro.api import run

        graphs = {
            "gnm_replay": lambda: gnm_random(N, 8, seed=SEED),
            "gnm_consuming": lambda: gnm_random(N, 8, seed=SEED),
            "clique_consuming": lambda: union_of_cliques(20, 6),
        }
        recorder = TraceRecorder()
        run(
            RunConfig(
                workload="replay" if workload == "gnm_replay" else "consuming",
                rho=0.25,
                order=order,
                max_steps=MAX_STEPS,
                engine=mode,
            ),
            graph=graphs[workload](),
            seed=SEED,
            recorder=recorder,
        )
        return recorder.to_jsonl()

    @pytest.mark.parametrize(
        "workload_key", ["gnm_replay", "gnm_consuming", "clique_consuming"]
    )
    @pytest.mark.parametrize("order", ORDERS)
    def test_fast_equals_reference(self, order, workload_key):
        ref = self._ordered_run(order, "reference", workload_key)
        fast = self._ordered_run(order, "fast", workload_key)
        assert fast == ref  # byte-identical obs traces

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_depth_one_equals_strict_ordered(self, mode):
        assert self._ordered_run("relaxed:1", mode) == self._ordered_run(
            "ordered", mode
        )

    def test_async_trace_schema_matches_unordered(self):
        # async runs must be drop-in for every unordered trace consumer:
        # same event kinds and same step/run_end payload fields (plus the
        # policy's own order_decision channel)
        import json

        unordered = [
            json.loads(line)
            for line in self._ordered_run("unordered", "reference").splitlines()
            if not line.startswith('{"dropped"')
        ]
        asynchronous = [
            json.loads(line)
            for line in self._ordered_run("async:4", "reference").splitlines()
            if not line.startswith('{"dropped"')
        ]

        def fields(events, kind):
            return {frozenset(e["data"]) for e in events if e["kind"] == kind}

        for kind in ("run_start", "select", "step", "run_end"):
            assert fields(asynchronous, kind) == fields(unordered, kind)
        extra = {e["kind"] for e in asynchronous} - {e["kind"] for e in unordered}
        assert extra <= {"order_decision"}


class TestEngineModeSelection:
    def test_unknown_mode_rejected(self):
        with pytest.raises(RuntimeEngineError):
            resolve_engine_mode("turbo")

    def test_default_is_reference(self):
        assert resolve_engine_mode(None) == "reference"
        assert resolve_engine_mode("fast") == "fast"

    def test_engine_records_mode(self):
        workload = ReplayGraphWorkload(gnm_random(20, 2, seed=0))
        engine = workload.make_engine(FixedController(4), seed=0, engine="fast")
        assert engine.engine_mode == "fast"
