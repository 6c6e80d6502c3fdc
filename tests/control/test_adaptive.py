"""Tests for repro.control.adaptive — noise-adaptive hybrid."""

import numpy as np
import pytest

from repro.control.adaptive import NoiseAdaptiveHybridController
from repro.control.hybrid import HybridController
from repro.errors import ControllerError
from repro.graph.generators import gnm_random
from repro.runtime.workloads import ReplayGraphWorkload


def run_plant(controller, plant, steps):
    ms = []
    for _ in range(steps):
        m = controller.propose()
        ms.append(m)
        controller.observe(plant(m), m)
    return ms


class TestThresholdAdaptation:
    def test_small_m_gets_wider_band(self):
        c = NoiseAdaptiveHybridController(0.2, m0=4)
        a0_small, a1_small, _ = c.current_thresholds()
        c._m = 400
        a0_big, a1_big, _ = c.current_thresholds()
        assert a1_small > a1_big
        assert a0_small >= a0_big

    def test_large_m_recovers_paper_constants(self):
        c = NoiseAdaptiveHybridController(0.2, m0=1000)
        a0, a1, period = c.current_thresholds()
        assert a1 == pytest.approx(0.06)  # the floor = the paper's alpha1
        assert a0 == pytest.approx(0.25)
        assert period == 4

    def test_band_capped(self):
        c = NoiseAdaptiveHybridController(0.2, m0=2, max_deadband=0.35)
        _, a1, _ = c.current_thresholds()
        assert a1 <= 0.35


class TestClosedLoop:
    def test_converges_on_linear_plant(self):
        c = NoiseAdaptiveHybridController(0.2)
        ms = run_plant(c, lambda m: min(m / 1000.0, 1.0), 80)
        assert ms[-1] == pytest.approx(200, rel=0.2)

    def test_stabler_than_plain_hybrid_at_small_mu(self):
        """Noisy plant with small optimum: adaptive wobbles less."""
        rng = np.random.default_rng(0)

        def noisy_plant(m, mu=12):
            # binomial realisation of r̄(m) = 0.2·m/mu
            p = min(0.2 * m / mu, 1.0)
            return rng.binomial(m, p) / m

        def tail_wobble(ctrl):
            ms = run_plant(ctrl, noisy_plant, 400)
            tail = np.asarray(ms[200:], dtype=float)
            return tail.std() / tail.mean()

        wobble_adaptive = tail_wobble(NoiseAdaptiveHybridController(0.2))
        wobble_plain = tail_wobble(HybridController(0.2, small_params=None))
        assert wobble_adaptive < wobble_plain

    def test_tracks_on_real_graph(self):
        graph = gnm_random(1000, 12, seed=1)
        wl = ReplayGraphWorkload(graph)
        eng = wl.make_engine(NoiseAdaptiveHybridController(0.2), seed=2)
        res = eng.run(max_steps=150)
        assert res.r_trace[60:].mean() == pytest.approx(0.2, abs=0.06)

    def test_reset(self):
        c = NoiseAdaptiveHybridController(0.2, m0=2)
        run_plant(c, lambda m: 0.0, 20)
        assert c.current_m > 2
        c.reset()
        assert c.current_m == 2


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ControllerError):
            NoiseAdaptiveHybridController(0.0)
        with pytest.raises(ControllerError):
            NoiseAdaptiveHybridController(0.2, r_min=0.0)
        with pytest.raises(ControllerError):
            NoiseAdaptiveHybridController(0.2, trigger_rate=1.0)
        with pytest.raises(ControllerError):
            NoiseAdaptiveHybridController(0.2, base_period=0)
        with pytest.raises(ControllerError):
            NoiseAdaptiveHybridController(0.2, m_min=10, m_max=2)
