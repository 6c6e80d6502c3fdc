"""Tests for repro.apps.boruvka."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.boruvka import (
    BoruvkaMST,
    WeightedGraph,
    kruskal_weight,
    random_weighted_graph,
)
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import ApplicationError


class TestWeightedGraph:
    def test_add_and_query(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 0.5)
        assert g.neighbors(0) == {1: 0.5}
        assert g.num_edges == 1

    def test_edge_update_keeps_count(self):
        g = WeightedGraph(2)
        g.add_edge(0, 1, 0.5)
        g.add_edge(0, 1, 0.7)
        assert g.num_edges == 1
        assert g.neighbors(0)[1] == 0.7

    def test_self_loop_rejected(self):
        g = WeightedGraph(2)
        with pytest.raises(ApplicationError):
            g.add_edge(1, 1, 0.1)

    def test_range_check(self):
        g = WeightedGraph(2)
        with pytest.raises(ApplicationError):
            g.add_edge(0, 5, 0.1)

    def test_edges_listed_once(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 0.1)
        g.add_edge(1, 2, 0.2)
        assert len(g.edges()) == 2


class TestRandomWeightedGraph:
    def test_connected_spanning_tree_baseline(self):
        g = random_weighted_graph(50, 1.0, seed=0)
        assert g.num_edges >= 49  # at least the spanning tree

    def test_target_density(self):
        g = random_weighted_graph(200, 8, seed=1)
        assert g.num_edges == pytest.approx(800, rel=0.05)

    def test_validation(self):
        with pytest.raises(ApplicationError):
            random_weighted_graph(0, 2)


class TestBoruvkaCorrectness:
    def test_matches_kruskal_exactly(self):
        g = random_weighted_graph(300, 6, seed=2)
        app = BoruvkaMST(g)
        app.make_engine(HybridController(0.25), seed=3).run(max_steps=10000)
        assert app.total_weight == pytest.approx(kruskal_weight(g), abs=1e-9)
        assert app.num_components() == 1
        assert len(app.mst_edges) == 299

    def test_mst_edges_are_graph_edges(self):
        g = random_weighted_graph(80, 4, seed=4)
        app = BoruvkaMST(g)
        app.make_engine(FixedController(8), seed=5).run(max_steps=5000)
        for u, v, w in app.mst_edges:
            assert g.neighbors(u).get(v) == w

    def test_mst_is_acyclic_spanning(self):
        g = random_weighted_graph(100, 5, seed=6)
        app = BoruvkaMST(g)
        app.make_engine(FixedController(16), seed=7).run(max_steps=5000)
        # union-find over mst edges: no cycle, covers all nodes
        parent = list(range(100))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, _ in app.mst_edges:
            ru, rv = find(u), find(v)
            assert ru != rv, "cycle in MST"
            parent[ru] = rv
        assert len({find(x) for x in range(100)}) == 1

    @settings(max_examples=12, deadline=None)
    @given(st.integers(2, 60), st.floats(1.0, 6.0), st.integers(0, 1000), st.integers(1, 32))
    def test_weight_matches_kruskal_property(self, n, deg, seed, m):
        g = random_weighted_graph(n, deg, seed=seed)
        app = BoruvkaMST(g)
        app.make_engine(FixedController(m), seed=seed).run(max_steps=20000)
        assert app.total_weight == pytest.approx(kruskal_weight(g), abs=1e-9)

    def test_single_node_graph(self):
        g = WeightedGraph(1)
        app = BoruvkaMST(g)
        assert len(app.workset) == 0
        assert app.num_components() == 1

    def test_disconnected_graph_gives_forest(self):
        g = WeightedGraph(4)
        g.add_edge(0, 1, 0.3)
        g.add_edge(2, 3, 0.4)
        app = BoruvkaMST(g)
        app.make_engine(FixedController(4), seed=8).run(max_steps=100)
        assert app.num_components() == 2
        assert app.total_weight == pytest.approx(0.7)


class TestParallelConflicts:
    def test_conflicts_occur_under_wide_allocation(self):
        g = random_weighted_graph(200, 6, seed=9)
        app = BoruvkaMST(g)
        res = app.make_engine(FixedController(64), seed=10).run(max_steps=5000)
        assert res.total_aborted > 0  # contention on shared components
        assert app.total_weight == pytest.approx(kruskal_weight(g), abs=1e-9)
