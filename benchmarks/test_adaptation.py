"""ADAPT — §4.1's stress case: abrupt parallelism changes (0 → ~1000/30 steps)."""

import pytest

from repro.apps.profiles import ScheduledReplayWorkload, delaunay_burst_profile
from repro.control.hybrid import HybridController
from repro.experiments import adaptation


@pytest.fixture(scope="module")
def adapt_result():
    return adaptation.run(
        profiles=("step", "spike", "burst"), total_tasks=2000, rho=0.20, seed=0
    )


def _burst_run():
    wl = ScheduledReplayWorkload(delaunay_burst_profile(peak=500, total_tasks=2000))
    eng = wl.make_engine(HybridController(0.2), seed=5)
    return eng.run(max_steps=wl.total_steps())


def test_adaptation_regeneration(adapt_result, save_report, benchmark):
    benchmark.pedantic(_burst_run, rounds=3, iterations=1)
    save_report("adaptation", adapt_result)

    for profile in ("step", "spike", "burst"):
        hybrid_lag = adapt_result.scalars[f"{profile}_hybrid_mean_lag"]
        a_lag = adapt_result.scalars[f"{profile}_recA_mean_lag"]
        # the paper's requirement: fast re-tracking; A-only cannot keep up
        assert hybrid_lag <= 30, profile
        assert hybrid_lag < a_lag, profile


def test_burst_tracks_delaunay_shape(adapt_result):
    """On the [15]-style burst, the allocation must follow the rise."""
    burst_series = [
        (name, ys) for name, _, ys in adapt_result.series if name.startswith("burst/hybrid ")
        or name.startswith("burst/hybrid(")
    ]
    name, ys = next((n, y) for n, y in burst_series if "no split" not in n)
    # allocation at the end of the rise is much higher than at the start
    assert max(ys) > 20 * ys[0]
