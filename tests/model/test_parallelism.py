"""Tests for repro.model.parallelism — profiles à la [15]."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.graph.generators import complete_graph, empty_graph, union_of_cliques
from repro.model.parallelism import (
    ParallelismProfile,
    measure_profile,
    profile_from_run,
    profile_summary,
)


class TestProfileType:
    def test_length_and_peak(self):
        p = ParallelismProfile(
            available=np.array([1.0, 5.0, 3.0]), workset=np.array([10, 10, 10])
        )
        assert len(p) == 3
        assert p.peak == 5.0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ModelError):
            ParallelismProfile(available=np.array([1.0]), workset=np.array([1, 2]))

    def test_rise_time(self):
        p = ParallelismProfile(
            available=np.array([0.0, 1.0, 8.0, 10.0, 9.0]),
            workset=np.zeros(5),
        )
        assert p.rise_time(0.9) == 3
        assert p.rise_time(0.05) == 1

    def test_rise_time_validation(self):
        p = ParallelismProfile(available=np.array([1.0]), workset=np.array([1.0]))
        with pytest.raises(ModelError):
            p.rise_time(0.0)

    def test_empty_profile(self):
        p = ParallelismProfile(available=np.array([]), workset=np.array([]))
        assert p.peak == 0.0 and p.rise_time() == 0


class TestMeasureProfile:
    def test_clique_sequence(self):
        graphs = [union_of_cliques(p, 6) for p in (1, 4, 8)]
        prof = measure_profile(graphs, reps=60, seed=0)
        # available parallelism of p disjoint cliques is exactly p
        assert prof.available == pytest.approx([1.0, 4.0, 8.0], abs=1e-9)
        assert list(prof.workset) == [6, 24, 48]

    def test_extremes(self):
        graphs = [empty_graph(10), complete_graph(10)]
        prof = measure_profile(graphs, reps=40, seed=1)
        assert prof.available[0] == pytest.approx(10.0)
        assert prof.available[1] == pytest.approx(1.0)

    def test_empty_graph_in_sequence(self):
        from repro.graph.ccgraph import CCGraph

        prof = measure_profile([CCGraph()], reps=5, seed=2)
        assert prof.available[0] == 0.0


class TestProfileFromRun:
    def test_tracks_engine_commits(self):
        from repro import RunConfig, run
        from repro.graph.generators import gnm_random

        res = run(
            RunConfig(workload="consuming", controller="fixed", m=8, seed=1),
            graph=gnm_random(60, 4, seed=0),
        )
        prof = profile_from_run(res)
        assert len(prof) == len(res)
        assert prof.available.sum() == res.total_committed
        assert prof.workset[0] == 60


class TestSummary:
    def test_summary_keys(self):
        prof = ParallelismProfile(
            available=np.array([0.0, 2.0, 10.0, 10.0]), workset=np.zeros(4)
        )
        s = profile_summary(prof)
        assert set(s) == {"peak", "mean", "rise_time", "burstiness"}
        assert s["peak"] == 10.0
        assert s["rise_time"] == 2.0

    def test_flat_profile_burstiness_zero(self):
        prof = ParallelismProfile(available=np.full(5, 3.0), workset=np.zeros(5))
        assert profile_summary(prof)["burstiness"] == 0.0

    def test_empty_profile_summary(self):
        prof = ParallelismProfile(available=np.array([]), workset=np.array([]))
        assert profile_summary(prof)["peak"] == 0.0
