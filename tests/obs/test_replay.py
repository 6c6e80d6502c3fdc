"""Tests for repro.obs.replay — deterministic replay of recorded runs."""

import numpy as np
import pytest

from repro.control import (
    AIMDController,
    AStealController,
    BisectionController,
    FixedController,
    HybridController,
    NoiseAdaptiveHybridController,
    OracleController,
    PIController,
    ProbingHybridController,
    RecurrenceAController,
    RecurrenceBController,
    diagnose_trace,
)
from repro.errors import ObservabilityError, ReplayMismatchError
from repro.graph.generators import gnm_random
from repro.obs import (
    ReplayController,
    TraceRecorder,
    controller_from_config,
    controller_from_trace,
    recorded_seed,
    replay_decisions,
    split_runs,
    trajectory,
    verify_trace,
)
from repro.runtime.workloads import ConsumingGraphWorkload


def record_run(controller, n=60, d=6, graph_seed=3, engine_seed=11, max_steps=40):
    """Run *controller* on a draining gnm workload under a fresh recorder."""
    rec = TraceRecorder()
    workload = ConsumingGraphWorkload(gnm_random(n, d, seed=graph_seed))
    engine = workload.make_engine(controller, seed=engine_seed, recorder=rec)
    engine.run(max_steps=max_steps)
    return rec.events


CONTROLLERS = [
    HybridController(0.25, m_max=64),
    ProbingHybridController(0.25, 60, probe_windows=2, probe_window_steps=2, m_max=64),
    RecurrenceAController(0.25, m_max=64),
    RecurrenceBController(0.25, m_max=64),
    AIMDController(0.25, m_max=64),
    PIController(0.25, m_max=64),
    AStealController(0.25, m_max=64),
    BisectionController(0.25, m_max=64),
    NoiseAdaptiveHybridController(0.25, m_max=64),
    FixedController(6),
    OracleController(9, m_max=64),
]


class TestReplayAcrossControllers:
    @pytest.mark.parametrize(
        "controller", CONTROLLERS, ids=lambda c: type(c).__name__
    )
    def test_replay_reproduces_m_trajectory(self, controller):
        events = record_run(controller)
        reports = verify_trace(events)
        assert len(reports) == 1
        report = reports[0]
        assert report.matches and report.first_divergence() == -1
        assert report.controller_type == type(controller).__name__
        assert report.steps > 0


class TestTraceHelpers:
    def test_split_runs_segments_at_run_start(self):
        first = record_run(FixedController(4))
        second = record_run(FixedController(8))
        segments = split_runs(first + second)
        assert len(segments) == 2
        assert segments[0][0].kind == "run_start"
        assert trajectory(segments[0])[0][0] == 4
        assert trajectory(segments[1])[0][0] == 8

    def test_split_runs_discards_headless_prefix(self):
        events = record_run(FixedController(4))
        # cut off the run_start, as a ring-buffer overflow would
        segments = split_runs(events[1:])
        assert segments == []

    def test_trajectory_shapes(self):
        events = record_run(HybridController(0.25, m_max=64))
        ms, rs = trajectory(events)
        assert ms.shape == rs.shape and ms.dtype == np.int64
        assert (ms >= 1).all() and (rs >= 0).all() and (rs <= 1).all()

    def test_recorded_seed(self):
        events = record_run(FixedController(4), engine_seed=1234)
        assert recorded_seed(events) == 1234
        assert recorded_seed([]) is None

    def test_commit_accounting_in_step_events(self):
        events = record_run(HybridController(0.25, m_max=64))
        for e in events:
            if e.kind == "step":
                assert e.data["committed"] + e.data["aborted"] == e.data["launched"]
                assert len(e.data["commit_positions"]) == e.data["committed"]
                assert len(e.data["abort_positions"]) == e.data["aborted"]


class TestControllerReconstruction:
    def test_round_trip_preserves_describe(self):
        for controller in CONTROLLERS:
            config = controller.describe()
            rebuilt = controller_from_config(config)
            assert type(rebuilt).__name__ == config["type"]

    def test_missing_type_raises(self):
        with pytest.raises(ObservabilityError):
            controller_from_config({"rho": 0.25})

    def test_unknown_type_raises(self):
        with pytest.raises(ObservabilityError, match="Imaginary"):
            controller_from_config({"type": "ImaginaryController"})

    def test_controller_from_trace_requires_run_start(self):
        with pytest.raises(ObservabilityError):
            controller_from_trace([])


class TestMismatchDetection:
    def test_tampered_trace_is_caught(self):
        from repro.obs import TraceEvent

        events = list(record_run(HybridController(0.25, m_max=64)))
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind == "step" and e.data["requested"] > 2
        )
        data = dict(events[idx].data)
        data["requested"] += 1  # corrupt one recorded decision
        events[idx] = TraceEvent(step=events[idx].step, kind="step", data=data)
        with pytest.raises(ReplayMismatchError, match="diverged at step"):
            verify_trace(events)

    def test_replay_with_explicit_controller_mismatch(self):
        events = record_run(HybridController(0.25, m_max=64))
        report = replay_decisions(events, controller=FixedController(3))
        assert not report.matches
        assert report.first_divergence() >= 0


class TestReplayController:
    def test_replays_fixed_sequence(self):
        rc = ReplayController([2, 4, 8])
        out = []
        for r in (0.1, 0.2, 0.3):
            out.append(rc.propose())
            rc.observe(r, out[-1])
        assert out == [2, 4, 8]
        assert rc.remaining == 0

    def test_exhaustion_raises(self):
        rc = ReplayController([2])
        rc.propose()
        rc.observe(0.0, 2)
        with pytest.raises(ReplayMismatchError):
            rc.propose()

    def test_reset_rewinds(self):
        rc = ReplayController([2, 3])
        rc.propose()
        rc.observe(0.0, 2)
        rc.reset()
        assert rc.propose() == 2

    def test_from_trace_drives_engine_identically(self):
        events = record_run(HybridController(0.25, m_max=64), engine_seed=99)
        ms, rs = trajectory(events)
        rc = ReplayController.from_trace(events)
        replay_events = record_run(rc, engine_seed=99)
        ms2, rs2 = trajectory(replay_events)
        assert np.array_equal(ms, ms2)
        assert np.array_equal(rs, rs2)  # same seed + same m_t => same run

    def test_empty_sequence_rejected(self):
        with pytest.raises(ObservabilityError):
            ReplayController([])
        with pytest.raises(ObservabilityError):
            ReplayController([0])


class TestTraceDiagnostics:
    def test_diagnose_recorded_hybrid_run(self):
        events = record_run(HybridController(0.25, m_max=64))
        diag = diagnose_trace(events)
        assert diag.controller_type == "HybridController"
        assert diag.steps == len(trajectory(events)[0])
        assert sum(u.count for u in diag.rule_usage.values()) > 0
        text = diag.render()
        assert "HybridController" in text and "final allocation" in text

    def test_multi_run_segment_rejected(self):
        events = record_run(FixedController(4)) + record_run(FixedController(4))
        with pytest.raises(ObservabilityError, match="split_runs"):
            diagnose_trace(events)
        for segment in split_runs(events):
            diagnose_trace(segment)  # per-segment works

    def test_headless_trace_rejected(self):
        with pytest.raises(ObservabilityError):
            diagnose_trace([])

    def test_plain_engine_trace_has_no_sweep_block(self):
        diag = diagnose_trace(record_run(FixedController(4)))
        assert diag.sweep is None
        assert "sweep" not in diag.render()

    def test_sweep_only_trace_diagnosed(self):
        from pathlib import Path

        from repro.obs import load_jsonl

        fixture = Path(__file__).parent / "fixtures" / "golden_sweep_fault_drill.jsonl"
        diag = diagnose_trace(load_jsonl(fixture))
        assert diag.steps == 0  # no engine run recorded in-process
        sweep = diag.sweep
        assert sweep is not None
        assert sweep.sweeps == 1 and sweep.configs == 2
        assert sweep.attempts == sweep.completed + sweep.failures
        assert sweep.failures == sweep.retries + sweep.quarantined
        assert "sweep:" in diag.render()

    def test_mixed_engine_and_sweep_trace(self):
        """An inline sweep interleaves engine events with sweep lifecycle."""
        from repro.obs import TraceEvent

        events = record_run(HybridController(0.25, m_max=64))
        sweep_events = [
            TraceEvent(step=0, kind="sweep_start", data={"configs": 1, "jobs": 1}),
            TraceEvent(
                step=1,
                kind="sweep_task_start",
                data={"experiment": "fig3", "seed": 5, "attempt": 0},
            ),
            TraceEvent(
                step=2,
                kind="sweep_task_complete",
                data={"experiment": "fig3", "cached": False, "reseeded": False},
            ),
        ]
        mixed = sweep_events[:2] + events + sweep_events[2:]
        diag = diagnose_trace(mixed)
        assert diag.controller_type == "HybridController"
        assert diag.steps > 0
        assert diag.sweep is not None
        assert diag.sweep.attempts == 1 and diag.sweep.completed == 1
        text = diag.render()
        assert "HybridController" in text and "sweep:" in text
