"""ADAPT — tracking abrupt parallelism changes (§4.1).

The paper's motivating stress case (from LonESTAR [15]): available
parallelism can go from ~0 to ~1000 tasks within ~30 temporal steps.  We
replay synthetic profiles with exactly controlled available parallelism
(disjoint-clique phase graphs) and measure how quickly each controller
re-tracks after every transition.

Metrics per transition: *lag* — steps until the allocation re-enters the
``±30%`` band around the new phase's oracle ``μ``; plus overall mean
conflict-ratio error and total committed work.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.apps.profiles import (
    Phase,
    ScheduledReplayWorkload,
    delaunay_burst_profile,
    spike_profile,
    step_profile,
)
from repro.control.base import Controller
from repro.control.hybrid import HybridController
from repro.control.recurrence import RecurrenceAController
from repro.control.tuning import oracle_mu
from repro.experiments.base import ExperimentResult
from repro.experiments.fig3 import default_hybrid
from repro.utils.rng import ensure_rng, spawn

__all__ = ["transition_lags", "run"]


def transition_lags(
    phases: list[Phase],
    m_trace: np.ndarray,
    mus: list[int],
    band: float = 0.3,
) -> list[int]:
    """Steps after each phase start until ``m_t`` enters ``μ·(1±band)``.

    Returns one lag per phase (the first phase's lag is the cold-start
    settling).  A lag equal to the phase duration means "never tracked".
    """
    lags: list[int] = []
    start = 0
    for phase, mu in zip(phases, mus):
        end = min(start + phase.duration, len(m_trace))
        lo, hi = (1.0 - band) * mu, (1.0 + band) * mu
        window = m_trace[start:end]
        hits = np.nonzero((window >= lo) & (window <= hi))[0]
        lags.append(int(hits[0]) if hits.size else phase.duration)
        start = end
    return lags


def _profile(name: str, total_tasks: int) -> list[Phase]:
    if name == "step":
        return step_profile(4, 250, total_tasks, steps_per_phase=60)
    if name == "spike":
        # the peak must outlast the theoretical minimum climb time
        # (log_{ρ/r_min}(μ) windows), else no controller can track it
        return spike_profile(4, 400, total_tasks, base_steps=50, peak_steps=24)
    if name == "burst":
        return delaunay_burst_profile(peak=500, total_tasks=total_tasks)
    raise ValueError(f"unknown profile {name!r}")


def run(
    profiles: tuple[str, ...] = ("step", "spike", "burst"),
    total_tasks: int = 2000,
    rho: float = 0.20,
    seed=None,
    controllers: "dict[str, Callable[[], Controller]] | None" = None,
) -> ExperimentResult:
    """Re-tracking lags of each controller on each profile."""
    rng = ensure_rng(seed)
    if controllers is None:
        controllers = {
            "hybrid": lambda: default_hybrid(rho),
            "hybrid(no split)": lambda: HybridController(rho),
            "recA": lambda: RecurrenceAController(rho),
        }
    result = ExperimentResult(
        name="ADAPT abrupt-profile tracking",
        description=(
            f"Re-tracking lag after abrupt parallelism changes; ρ={rho:.0%}, "
            f"{total_tasks} tasks per phase graph."
        ),
    )
    for prof_name in profiles:
        phases = _profile(prof_name, total_tasks)
        mu_rng, *run_rngs = spawn(rng, 1 + len(controllers))
        mus = [
            oracle_mu(ph.graph, rho, grid_size=16, reps=60, seed=mu_rng)
            for ph in phases
        ]
        rows = []
        for (name, factory), run_rng in zip(controllers.items(), run_rngs):
            wl = ScheduledReplayWorkload(phases)
            engine = wl.make_engine(factory(), seed=run_rng)
            res = engine.run(max_steps=wl.total_steps())
            lags = transition_lags(phases, res.m_trace, mus, band=0.4)
            rows.append(
                (
                    name,
                    " ".join(str(lag) for lag in lags),
                    float(np.mean(lags[1:])) if len(lags) > 1 else float(lags[0]),
                    res.total_committed,
                    float(np.abs(res.r_trace - rho).mean()),
                )
            )
            result.add_series(
                f"{prof_name}/{name} m_t (μ per phase: {mus})",
                list(range(len(res.m_trace))),
                res.m_trace.tolist(),
            )
            result.scalars[f"{prof_name}_{name}_mean_lag"] = (
                float(np.mean(lags[1:])) if len(lags) > 1 else float(lags[0])
            )
        result.add_table(
            f"profile '{prof_name}' (phase μ: {mus})",
            ["controller", "lag per phase", "mean lag (post-start)", "committed", "|r−ρ| mean"],
            rows,
        )
    result.add_note(
        "Lag = steps until m_t re-enters ±30% of the new phase optimum; "
        "phase duration = never tracked."
    )
    return result
