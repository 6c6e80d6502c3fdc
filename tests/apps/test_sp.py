"""Tests for repro.apps.sp — survey propagation."""

import numpy as np
import pytest

from repro.apps.sp import SatInstance, SurveyPropagation, random_ksat
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import ApplicationError


class TestSatInstance:
    def test_valid_instance(self):
        inst = SatInstance(3, [(1, -2, 3), (-1, 2)])
        assert inst.num_vars == 3
        assert len(inst.clauses) == 2

    def test_empty_clause_rejected(self):
        with pytest.raises(ApplicationError):
            SatInstance(2, [()])

    def test_zero_literal_rejected(self):
        with pytest.raises(ApplicationError):
            SatInstance(2, [(0,)])

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(ApplicationError):
            SatInstance(2, [(3,)])

    def test_repeated_variable_rejected(self):
        with pytest.raises(ApplicationError):
            SatInstance(2, [(1, -1)])


class TestRandomKsat:
    def test_shape(self):
        inst = random_ksat(20, 60, k=3, seed=0)
        assert inst.num_vars == 20
        assert len(inst.clauses) == 60
        assert all(len(c) == 3 for c in inst.clauses)

    def test_k_validation(self):
        with pytest.raises(ApplicationError):
            random_ksat(3, 5, k=4)


class TestSurveyPropagation:
    def test_converges_to_fixed_point(self):
        inst = random_ksat(60, 150, k=3, seed=1)
        sp = SurveyPropagation(inst, tol=1e-3, seed=2)
        sp.make_engine(HybridController(0.25), seed=3).run(max_steps=4000)
        assert sp.max_residual() < 0.05  # near fixed point

    def test_underconstrained_surveys_vanish(self):
        """alpha = M/N well below the SAT threshold: paramagnetic fixed
        point eta = 0 everywhere."""
        inst = random_ksat(80, 80, k=3, seed=4)  # alpha = 1 << 4.27
        sp = SurveyPropagation(inst, tol=1e-4, seed=5)
        sp.make_engine(FixedController(16), seed=6).run(max_steps=8000)
        values = np.array(list(sp.eta.values()))
        assert values.max() < 0.05

    def test_single_clause_eta_zero(self):
        # one clause: no other clauses constrain its variables -> eta = 0
        inst = SatInstance(3, [(1, 2, 3)])
        sp = SurveyPropagation(inst, tol=1e-6, init=0.5, seed=7)
        sp.make_engine(FixedController(1), seed=8).run(max_steps=50)
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in sp.eta.values())

    def test_contradictory_pair_polarises(self):
        """x forced true by one unit-ish structure: (x∨y) with (x∨¬y)
        leaves x biased toward true after convergence."""
        inst = SatInstance(2, [(1, 2), (1, -2)])
        sp = SurveyPropagation(inst, tol=1e-6, init=0.9, seed=9)
        sp.make_engine(FixedController(2), seed=10).run(max_steps=400)
        biases = sp.biases()
        # bias convention: positive = prefer true
        assert biases[0] >= -1e-9

    def test_surveys_stay_in_unit_interval(self):
        inst = random_ksat(40, 160, k=3, seed=11)
        sp = SurveyPropagation(inst, tol=1e-3, damping=0.2, seed=12)
        sp.make_engine(FixedController(8), seed=13).run(max_steps=1500)
        values = np.array(list(sp.eta.values()))
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_max_updates_cap(self):
        inst = random_ksat(30, 120, k=3, seed=14)
        sp = SurveyPropagation(inst, max_updates=10, seed=15)
        sp.make_engine(FixedController(4), seed=16).run(max_steps=1000)
        assert sp.updates_done <= 10

    def test_parameter_validation(self):
        inst = random_ksat(5, 5, seed=0)
        with pytest.raises(ApplicationError):
            SurveyPropagation(inst, tol=0.0)
        with pytest.raises(ApplicationError):
            SurveyPropagation(inst, damping=1.0)
        with pytest.raises(ApplicationError):
            SurveyPropagation(inst, init=1.5)

    def test_biases_shape(self):
        inst = random_ksat(25, 50, seed=17)
        sp = SurveyPropagation(inst, seed=18)
        assert sp.biases().shape == (25,)
