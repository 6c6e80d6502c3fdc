"""COSTS — abort-cost sensitivity of the optimal target ρ*."""

import numpy as np
import pytest

from repro.control.hybrid import HybridController
from repro.experiments import costs
from repro.graph.generators import gnm_random
from repro.runtime.costs import ScaledAbortCostModel
from repro.runtime.workloads import ConsumingGraphWorkload


@pytest.fixture(scope="module")
def costs_result():
    return costs.run(n=3000, d=16, replications=2, seed=0)


def _one_costed_drain():
    wl = ConsumingGraphWorkload(gnm_random(3000, 16, seed=41))
    eng = wl.make_engine(
        HybridController(0.25, m_max=256), seed=42, cost_model=ScaledAbortCostModel(4.0)
    )
    eng.run(max_steps=10**6)
    return eng


def test_costs_regeneration(costs_result, save_report, benchmark):
    eng = benchmark.pedantic(_one_costed_drain, rounds=2, iterations=1)
    assert eng.costs.total > 0
    save_report("costs", costs_result)

    s = costs_result.scalars
    # the optimal target never increases as rollback gets pricier...
    best = [s[f"best_rho_factor{f:g}"] for f in (0.25, 1.0, 2.0, 4.0)]
    assert all(b >= a for a, b in zip(best[::-1], best[::-1][1:]))
    # ...and the extremes genuinely differ
    assert best[0] > best[-1]


def test_energy_curves_are_unimodalish(costs_result):
    """Each abort factor's energy curve has an interior-or-boundary optimum
    with higher energy on both extremes of the sweep than at its best ρ."""
    for title, headers, rows in costs_result.tables:
        energies = np.array([row[4] for row in rows])
        best = energies.min()
        assert energies[0] >= best
        assert energies[-1] >= best
