"""Tests for repro.runtime.workloads."""

import pytest

from repro import RunConfig, run
from repro.control.fixed import FixedController
from repro.errors import RuntimeEngineError
from repro.graph.generators import gnm_random, union_of_cliques
from repro.runtime.workloads import (
    RegeneratingGraphWorkload,
    ReplayGraphWorkload,
)


class TestReplayWorkload:
    def test_workset_size_constant(self):
        wl = ReplayGraphWorkload(gnm_random(50, 4, seed=0))
        eng = wl.make_engine(FixedController(8), seed=1)
        for _ in range(10):
            eng.step()
        assert len(wl.workset) == 50

    def test_graph_untouched(self):
        g = gnm_random(40, 4, seed=2)
        edges_before = sorted(g.edges())
        run(RunConfig(workload="replay", controller="fixed", m=8, seed=3, max_steps=20), graph=g)
        assert sorted(g.edges()) == edges_before

    def test_stationary_conflict_ratio(self):
        """Replay keeps r̄(m) constant: halves of a long run agree."""
        res = run(
            RunConfig(workload="replay", controller="fixed", m=30, seed=4, max_steps=400),
            graph=union_of_cliques(30, 5),
        )
        rs = res.r_trace
        first, second = rs[:200].mean(), rs[200:].mean()
        assert abs(first - second) < 0.05


class TestConsumingWorkload:
    def test_graph_drains_completely(self):
        g = gnm_random(60, 5, seed=5)
        res = run(RunConfig(workload="consuming", controller="fixed", m=10, seed=6), graph=g)
        assert g.num_nodes == 0
        assert res.total_committed == 60

    def test_conflicts_decline_as_graph_empties(self):
        g = union_of_cliques(5, 20)  # dense: lots of early conflicts
        res = run(RunConfig(workload="consuming", controller="fixed", m=50, seed=7), graph=g)
        rs = res.r_trace
        assert rs[0] > rs[-1]


class TestRegeneratingWorkload:
    def test_size_and_degree_stationary(self):
        g = gnm_random(80, 6, seed=8)
        wl = RegeneratingGraphWorkload(g, target_degree=6, seed=9)
        eng = wl.make_engine(FixedController(10), seed=10)
        eng.run(max_steps=100)
        assert g.num_nodes == 80
        assert g.average_degree == pytest.approx(6.0, abs=2.0)

    def test_workset_tracks_graph(self):
        g = gnm_random(30, 4, seed=11)
        wl = RegeneratingGraphWorkload(g, target_degree=4, seed=12)
        eng = wl.make_engine(FixedController(5), seed=13)
        for _ in range(20):
            eng.step()
        # every pending task refers to a live node
        assert len(wl.workset) == g.num_nodes

    def test_negative_degree_rejected(self):
        with pytest.raises(RuntimeEngineError):
            RegeneratingGraphWorkload(gnm_random(10, 2, seed=0), target_degree=-1)
