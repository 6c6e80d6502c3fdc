"""Tests for repro.control.diagnostics."""

import pytest

from repro.control.diagnostics import diagnose_hybrid
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import ControllerError
from repro.graph.generators import gnm_random
from repro.runtime.workloads import ReplayGraphWorkload


def run_hybrid(rho=0.2, steps=80, seed=0):
    graph = gnm_random(800, 12, seed=seed)
    ctrl = HybridController(rho, small_params=None)
    ReplayGraphWorkload(graph).make_engine(ctrl, seed=seed + 1).run(max_steps=steps)
    return ctrl


class TestDiagnoseHybrid:
    def test_rule_usage_counts_match_updates(self):
        ctrl = run_hybrid()
        diag = diagnose_hybrid(ctrl)
        total = sum(u.count for u in diag.rule_usage.values())
        assert total == len(ctrl.updates) == diag.windows

    def test_cold_start_uses_recurrence_b(self):
        ctrl = run_hybrid()
        diag = diagnose_hybrid(ctrl)
        assert "B" in diag.rule_usage
        assert diag.rule_usage["B"].first_step <= 8  # early climb is B's job
        assert diag.cold_start_steps >= diag.rule_usage["B"].first_step

    def test_steady_state_mostly_holds_or_a(self):
        ctrl = run_hybrid(steps=200)
        diag = diagnose_hybrid(ctrl)
        ab = diag.rule_usage.get("hold", None)
        a = diag.rule_usage.get("A", None)
        gentle = (ab.count if ab else 0) + (a.count if a else 0)
        assert gentle >= diag.rule_usage["B"].count  # B is the exception

    def test_percentiles_ordered(self):
        diag = diagnose_hybrid(run_hybrid())
        p10, p50, p90 = diag.r_percentiles
        assert p10 <= p50 <= p90

    def test_render_mentions_rules(self):
        diag = diagnose_hybrid(run_hybrid())
        text = diag.render()
        assert "rule" in text and "final allocation" in text

    def test_wrong_type_rejected(self):
        with pytest.raises(ControllerError):
            diagnose_hybrid(FixedController(4))

    def test_fresh_controller_rejected(self):
        with pytest.raises(ControllerError):
            diagnose_hybrid(HybridController(0.2))
