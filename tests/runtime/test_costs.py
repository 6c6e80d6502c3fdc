"""Tests for repro.runtime.costs — the abort-cost accounting overlay."""

import pytest

from repro.control.fixed import FixedController
from repro.errors import RuntimeEngineError
from repro.graph.generators import complete_graph, empty_graph, gnm_random
from repro.runtime.costs import CostTotals, ScaledAbortCostModel, UnitCostModel
from repro.runtime.workloads import ConsumingGraphWorkload, ReplayGraphWorkload


class TestCostTotals:
    def test_empty_totals(self):
        t = CostTotals()
        assert t.total == 0.0 and t.wasted_fraction == 0.0

    def test_fraction(self):
        t = CostTotals(commit_cost=6.0, abort_cost=2.0)
        assert t.total == 8.0
        assert t.wasted_fraction == pytest.approx(0.25)


class TestUnitCosts:
    def test_matches_launch_counts(self):
        g = gnm_random(100, 8, seed=0)
        wl = ConsumingGraphWorkload(g)
        eng = wl.make_engine(FixedController(16), seed=1)
        res = eng.run()
        assert eng.costs.commit_cost == res.total_committed
        assert eng.costs.abort_cost == res.total_aborted
        assert eng.costs.total == res.processor_steps()

    def test_default_model_is_unit(self):
        g = empty_graph(5)
        wl = ConsumingGraphWorkload(g)
        eng = wl.make_engine(FixedController(5), seed=2)
        assert isinstance(eng.cost_model, UnitCostModel)
        eng.run()
        assert eng.costs.total == 5.0


class TestScaledAbortCosts:
    def test_aborts_scaled(self):
        g = complete_graph(10)
        wl = ReplayGraphWorkload(g)
        eng = wl.make_engine(
            FixedController(10), seed=3, cost_model=ScaledAbortCostModel(3.0)
        )
        eng.step()  # 1 commit, 9 aborts
        assert eng.costs.commit_cost == 1.0
        assert eng.costs.abort_cost == 27.0

    def test_free_aborts(self):
        g = complete_graph(6)
        wl = ReplayGraphWorkload(g)
        eng = wl.make_engine(
            FixedController(6), seed=4, cost_model=ScaledAbortCostModel(0.0)
        )
        eng.step()
        assert eng.costs.abort_cost == 0.0
        assert eng.costs.wasted_fraction == 0.0

    def test_negative_factor_rejected(self):
        with pytest.raises(RuntimeEngineError):
            ScaledAbortCostModel(-1.0)

    def test_expensive_aborts_shift_waste_up(self):
        g = gnm_random(200, 10, seed=5)
        wl1 = ConsumingGraphWorkload(g.copy())
        eng1 = wl1.make_engine(FixedController(32), seed=6)
        eng1.run()
        wl2 = ConsumingGraphWorkload(g.copy())
        eng2 = wl2.make_engine(
            FixedController(32), seed=6, cost_model=ScaledAbortCostModel(4.0)
        )
        eng2.run()
        assert eng2.costs.wasted_fraction > eng1.costs.wasted_fraction
