"""Tests for repro.runtime.recording — trace persistence and diffing."""

import pytest

from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import RuntimeEngineError
from repro.graph.generators import gnm_random
from repro.runtime.recording import RunRecorder, diff_runs, load_run, save_run
from repro.runtime.workloads import ConsumingGraphWorkload


@pytest.fixture
def sample_run():
    wl = ConsumingGraphWorkload(gnm_random(80, 6, seed=0))
    eng = wl.make_engine(HybridController(0.25), seed=1)
    return eng.run()


class TestRoundTrip:
    def test_recorder_captures_every_step(self, tmp_path):
        wl = ConsumingGraphWorkload(gnm_random(50, 4, seed=2))
        recorder = RunRecorder(metadata={"workload": "gnm50"})
        eng = wl.make_engine(FixedController(8), seed=3, step_hook=recorder)
        res = eng.run()
        assert len(recorder.records) == len(res)
        out = tmp_path / "run.jsonl"
        recorder.save(out)
        loaded, meta = load_run(out)
        assert meta == {"workload": "gnm50"}
        assert loaded.m_trace.tolist() == res.m_trace.tolist()

    def test_save_run_direct(self, sample_run, tmp_path):
        out = tmp_path / "run.jsonl"
        save_run(sample_run, out, metadata={"seed": 1})
        loaded, meta = load_run(out)
        assert meta == {"seed": 1}
        assert loaded.total_committed == sample_run.total_committed
        assert loaded.total_aborted == sample_run.total_aborted
        assert loaded.r_trace.tolist() == pytest.approx(sample_run.r_trace.tolist())

    def test_empty_run(self, tmp_path):
        from repro.runtime.stats import RunResult

        out = tmp_path / "empty.jsonl"
        save_run(RunResult(), out)
        loaded, _ = load_run(out)
        assert len(loaded) == 0


class TestMalformedInput:
    def test_empty_file(self, tmp_path):
        f = tmp_path / "x.jsonl"
        f.write_text("")
        with pytest.raises(RuntimeEngineError):
            load_run(f)

    def test_missing_header(self, tmp_path):
        f = tmp_path / "x.jsonl"
        f.write_text('{"step": 0}\n')
        with pytest.raises(RuntimeEngineError):
            load_run(f)

    def test_bad_json(self, tmp_path):
        f = tmp_path / "x.jsonl"
        f.write_text('{"metadata": {}}\nnot json\n')
        with pytest.raises(RuntimeEngineError):
            load_run(f)

    def test_missing_field(self, tmp_path):
        f = tmp_path / "x.jsonl"
        f.write_text('{"metadata": {}}\n{"step": 0}\n')
        with pytest.raises(RuntimeEngineError):
            load_run(f)


class TestDiff:
    def test_identical_runs_zero_diff(self, sample_run):
        d = diff_runs(sample_run, sample_run, target=20)
        assert all(v == 0.0 for v in d.values())

    def test_improvement_is_negative(self):
        g = gnm_random(120, 8, seed=4)
        slow = ConsumingGraphWorkload(g.copy()).make_engine(
            FixedController(2), seed=5
        ).run()
        fast = ConsumingGraphWorkload(g.copy()).make_engine(
            FixedController(32), seed=5
        ).run()
        d = diff_runs(slow, fast)
        assert d["makespan"] < 0  # fast run shorter
        assert d["wasted_fraction"] > 0  # but wastes more

    def test_target_adds_settling(self, sample_run):
        d = diff_runs(sample_run, sample_run, target=10)
        assert "settling_step" in d
