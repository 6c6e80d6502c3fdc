"""Tests for repro.apps.components — label propagation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.components import LabelPropagation
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import ApplicationError
from repro.graph.ccgraph import CCGraph
from repro.graph.generators import empty_graph, gnm_random, path_graph, union_of_cliques


class TestLabelPropagation:
    def test_single_component_single_label(self):
        g = path_graph(40)
        app = LabelPropagation(g)
        app.make_engine(HybridController(0.25), seed=0).run(max_steps=10**5)
        assert app.num_components() == 1
        assert set(app.labels.values()) == {0}

    def test_isolated_nodes_keep_labels(self):
        g = empty_graph(10)
        app = LabelPropagation(g)
        app.make_engine(FixedController(4), seed=1).run(max_steps=10**4)
        assert app.num_components() == 10
        assert app.labels == {u: u for u in range(10)}

    def test_cliques_become_components(self):
        g = union_of_cliques(7, 5)
        app = LabelPropagation(g)
        app.make_engine(FixedController(8), seed=2).run(max_steps=10**5)
        assert app.num_components() == 7
        assert app.check_against_networkx()

    def test_random_graph_matches_networkx(self):
        g = gnm_random(300, 1.5, seed=3)  # sparse -> many components
        app = LabelPropagation(g)
        app.make_engine(HybridController(0.25), seed=4).run(max_steps=10**6)
        assert app.check_against_networkx()

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 60), st.floats(0, 4), st.integers(0, 300), st.integers(1, 24))
    def test_property_any_graph_any_m(self, n, d, seed, m):
        g = gnm_random(n, min(d, n - 1), seed=seed)
        app = LabelPropagation(g)
        app.make_engine(FixedController(m), seed=seed).run(max_steps=10**6)
        assert app.check_against_networkx()

    def test_empty_graph_rejected(self):
        with pytest.raises(ApplicationError):
            LabelPropagation(CCGraph())

    def test_update_counting(self):
        g = path_graph(5)
        app = LabelPropagation(g)
        app.make_engine(FixedController(2), seed=5).run(max_steps=10**4)
        # nodes 1..4 must each improve at least once down to label 0
        assert app.updates >= 4
