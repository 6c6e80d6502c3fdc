"""Tests for repro.model.noise — the conflict-ratio noise model."""

import numpy as np
import pytest

from repro.control.fixed import FixedController
from repro.errors import ModelError
from repro.graph.generators import gnm_random
from repro.model.noise import (
    false_trigger_probability,
    suggest_deadband,
    suggest_period,
    window_std,
)
from repro.runtime.workloads import ReplayGraphWorkload


class TestWindowStd:
    def test_formula(self):
        assert window_std(0.2, 100, 4) == pytest.approx(np.sqrt(0.16 / 400))

    def test_decreases_with_m_and_t(self):
        assert window_std(0.2, 100, 4) < window_std(0.2, 10, 4)
        assert window_std(0.2, 100, 16) < window_std(0.2, 100, 4)

    def test_extremes_are_zero(self):
        assert window_std(0.0, 10, 4) == 0.0
        assert window_std(1.0, 10, 4) == 0.0

    def test_validation(self):
        with pytest.raises(ModelError):
            window_std(1.5, 10, 4)
        with pytest.raises(ModelError):
            window_std(0.2, 0, 4)
        with pytest.raises(ModelError):
            window_std(0.2, 10, 0)

    def test_matches_simulation_order_of_magnitude(self):
        """Binomial approximation within 2x of the measured std."""
        graph = gnm_random(800, 10, seed=0)
        m = 60
        wl = ReplayGraphWorkload(graph)
        eng = wl.make_engine(FixedController(m), seed=1)
        res = eng.run(max_steps=400)
        rs = res.r_trace
        r_mean = float(rs.mean())
        predicted = window_std(r_mean, m, 1)
        measured = float(rs.std())
        assert predicted / 2 <= measured <= predicted * 2


class TestFalseTrigger:
    def test_probability_decreases_with_band(self):
        p_narrow = false_trigger_probability(0.2, 0.06, 10, 4)
        p_wide = false_trigger_probability(0.2, 0.30, 10, 4)
        assert p_wide < p_narrow

    def test_small_m_triggers_more(self):
        assert false_trigger_probability(0.2, 0.06, 10, 4) > false_trigger_probability(
            0.2, 0.06, 500, 4
        )

    def test_zero_band_always_triggers(self):
        assert false_trigger_probability(0.2, 0.0, 10, 4) == pytest.approx(1.0)

    def test_empirical_false_trigger_rate(self):
        """On-target windows leave the suggested band ≈ the design rate."""
        rho, m, period, rate = 0.2, 50, 4, 0.1
        band = suggest_deadband(rho, m, period, trigger_rate=rate)
        rng = np.random.default_rng(0)
        triggers = 0
        windows = 4000
        for _ in range(windows):
            rs = rng.binomial(m, rho, size=period) / m
            if abs(1.0 - rs.mean() / rho) > band:
                triggers += 1
        assert triggers / windows == pytest.approx(rate, abs=0.05)

    def test_validation(self):
        with pytest.raises(ModelError):
            false_trigger_probability(0.0, 0.1, 10, 4)
        with pytest.raises(ModelError):
            false_trigger_probability(0.2, -0.1, 10, 4)


class TestSuggestions:
    def test_deadband_shrinks_with_m(self):
        assert suggest_deadband(0.2, 500, 4) < suggest_deadband(0.2, 10, 4)

    def test_deadband_consistent_with_trigger_probability(self):
        band = suggest_deadband(0.2, 40, 4, trigger_rate=0.1)
        assert false_trigger_probability(0.2, band, 40, 4) == pytest.approx(0.1, abs=1e-6)

    def test_period_longer_for_small_m(self):
        assert suggest_period(0.2, 4, 0.25) > suggest_period(0.2, 400, 0.25)

    def test_period_clamped(self):
        assert 1 <= suggest_period(0.2, 1, 0.01) <= 64
        assert suggest_period(0.2, 10**6, 0.5) == 1

    def test_validation(self):
        with pytest.raises(ModelError):
            suggest_deadband(0.2, 10, 4, trigger_rate=0.0)
        with pytest.raises(ModelError):
            suggest_period(0.2, 10, 0.0)
