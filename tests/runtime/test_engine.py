"""Tests for repro.runtime.engine — step semantics and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunConfig, run
from repro.control.fixed import FixedController
from repro.errors import RuntimeEngineError
from repro.graph.generators import complete_graph, empty_graph, gnm_random
from repro.runtime.conflict import ItemLockPolicy
from repro.runtime.engine import OptimisticEngine
from repro.runtime.task import CallbackOperator, Task
from repro.runtime.workloads import ConsumingGraphWorkload, ReplayGraphWorkload
from repro.runtime.workset import RandomWorkset


def simple_engine(num_tasks: int, m: int, seed=0) -> OptimisticEngine:
    """Engine over conflict-free unit tasks."""
    ws = RandomWorkset()
    for i in range(num_tasks):
        ws.add(Task(payload=i))
    op = CallbackOperator(neighborhood=lambda t: {t.payload}, apply=lambda t: [])
    return OptimisticEngine(ws, op, ItemLockPolicy(), FixedController(m), seed=seed)


class TestStepSemantics:
    def test_conflict_free_drains_in_ceil_steps(self):
        eng = simple_engine(10, 4)
        res = eng.run()
        assert len(res) == 3  # 4 + 4 + 2
        assert res.total_committed == 10
        assert res.total_aborted == 0

    def test_step_on_empty_raises(self):
        eng = simple_engine(1, 1)
        eng.run()
        with pytest.raises(RuntimeEngineError):
            eng.step()

    def test_requested_vs_launched(self):
        eng = simple_engine(3, 10)
        stats = eng.step()
        assert stats.requested == 10
        assert stats.launched == 3

    def test_commits_plus_aborts_equals_launched(self):
        g = gnm_random(100, 8, seed=1)
        res = run(
            RunConfig(workload="consuming", controller="fixed", m=16, seed=2, max_steps=50),
            graph=g,
        )
        for s in res.steps:
            assert s.committed + s.aborted == s.launched

    def test_aborted_tasks_return_to_workset(self):
        g = complete_graph(6)
        wl = ReplayGraphWorkload(g)
        eng = wl.make_engine(FixedController(6), seed=3)
        stats = eng.step()
        assert stats.committed == 1 and stats.aborted == 5
        assert stats.workset_after == 6  # replay re-adds everything

    def test_consuming_workload_drains_graph(self):
        g = gnm_random(40, 4, seed=4)
        wl = ConsumingGraphWorkload(g)
        eng = wl.make_engine(FixedController(8), seed=5)
        res = eng.run()
        assert g.num_nodes == 0
        assert res.total_committed == 40

    def test_max_steps_respected(self):
        wl = ReplayGraphWorkload(gnm_random(30, 3, seed=6))
        eng = wl.make_engine(FixedController(4), seed=7)
        res = eng.run(max_steps=12)
        assert len(res) == 12
        assert eng.steps_executed == 12

    def test_negative_max_steps_raises(self):
        eng = simple_engine(2, 1)
        with pytest.raises(RuntimeEngineError):
            eng.run(max_steps=-1)

    def test_controller_observes_each_step(self):
        eng = simple_engine(9, 3)
        eng.run()
        ctrl = eng.controller
        assert len(ctrl.trace.observations) == 3
        assert all(r == 0.0 for r in ctrl.trace.observations)

    def test_step_hook_invoked(self):
        seen = []
        ws = RandomWorkset()
        ws.add(Task(payload=0))
        op = CallbackOperator(neighborhood=lambda t: (), apply=lambda t: [])
        eng = OptimisticEngine(
            ws, op, ItemLockPolicy(), FixedController(1), seed=0,
            step_hook=lambda engine, stats: seen.append(stats.step),
        )
        eng.run()
        assert seen == [0]

    def test_new_tasks_scheduled(self):
        # each task spawns one child until payload reaches 3
        ws = RandomWorkset()
        ws.add(Task(payload=0))
        op = CallbackOperator(
            neighborhood=lambda t: (),
            apply=lambda t: [Task(payload=t.payload + 1)] if t.payload < 3 else [],
        )
        eng = OptimisticEngine(ws, op, ItemLockPolicy(), FixedController(2), seed=0)
        res = eng.run()
        assert res.total_committed == 4  # payloads 0,1,2,3


class TestRetryTracking:
    def test_no_conflicts_no_retries(self):
        eng = simple_engine(10, 4)
        eng.run()
        assert eng.max_pending_retries() == 0
        assert eng.retry_counts == {}

    def test_retries_counted_and_cleared(self):
        g = complete_graph(5)
        wl = ConsumingGraphWorkload(g)
        eng = wl.make_engine(FixedController(5), seed=0)
        eng.step()  # 1 commit, 4 aborts
        assert eng.max_pending_retries() == 1
        assert len(eng.retry_counts) == 4
        eng.run()  # drain: everyone eventually commits
        assert eng.retry_counts == {}

    def test_heavy_contention_grows_retries(self):
        g = complete_graph(20)
        wl = ReplayGraphWorkload(g)
        eng = wl.make_engine(FixedController(20), seed=1)
        for _ in range(10):
            eng.step()
        assert eng.max_pending_retries() >= 2


class TestEngineInvariantsPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(5, 60), st.floats(0, 6), st.integers(1, 32), st.integers(0, 100))
    def test_commit_set_independent_every_step(self, n, d, m, seed):
        """Each step's committed payloads form an independent set."""
        d = min(d, n - 1.0)
        g = gnm_random(n, d, seed=seed)
        frozen = g.copy()
        committed_batches = []
        wl = ConsumingGraphWorkload(g)

        orig_resolve = wl.policy.resolve

        def spy(batch, operator):
            out = orig_resolve(batch, operator)
            committed_batches.append([t.payload for t in out.committed])
            return out

        wl.policy.resolve = spy
        wl.make_engine(FixedController(m), seed=seed).run(max_steps=200)
        for batch in committed_batches:
            batch_set = set(batch)
            for u in batch:
                assert batch_set.isdisjoint(frozen.neighbors(u))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 50), st.integers(1, 16), st.integers(0, 50))
    def test_work_conservation(self, n, m, seed):
        """Total commits equal the number of tasks for consuming workloads."""
        res = run(
            RunConfig(workload="consuming", controller="fixed", m=m, seed=seed),
            graph=empty_graph(n),
        )
        assert res.total_committed == n
        assert res.total_aborted == 0
