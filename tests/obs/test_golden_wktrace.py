"""Golden workload-trace regression test.

A checked-in ``.wktrace`` fixture records a reference Boruvka run
captured through :class:`~repro.runtime.wktrace.WorkloadCapture`.  The
test re-records the identical run and demands *byte-identical* canonical
JSONL — any drift in the capture encoding, the canonical serialisation,
the app's task generation, or the engine's commit schedule shows up as a
diff here — and then replays the fixture to completion, proving the
recorded artefact stays executable.

Regenerate (only after an intentional semantic change!) with::

    PYTHONPATH=src python -c "from tests.obs.test_golden_wktrace import regenerate; regenerate()"
"""

from pathlib import Path

import pytest

from repro.control import HybridController
from repro.obs import TraceRecorder
from repro.runtime.wktrace import TraceReplayWorkload, WorkloadCapture, WorkloadTrace

FIXTURE = Path(__file__).parent / "fixtures" / "golden_boruvka_n60.wktrace"

SCALE = 60
GRAPH_SEED = 2011  # SPAA 2011
ENGINE_SEED = 8


def golden_trace(select=None) -> WorkloadTrace:
    """Record the reference run: Boruvka MST at scale 60 under Algorithm 1.

    *select* names the selection backend (``None``: the default one).
    """
    from repro.apps import build_app_input, workload_from_input
    from repro.runtime.core import new_workset

    source = build_app_input("boruvka", SCALE, seed=GRAPH_SEED)
    app = workload_from_input(
        "boruvka", source, seed=GRAPH_SEED, workset=new_workset(select)
    )
    capture = WorkloadCapture(app, label="boruvka")
    capture.make_engine(HybridController(0.25, m_max=64), seed=ENGINE_SEED).run()
    return capture.finalize()


def regenerate() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(golden_trace().to_jsonl(), encoding="utf-8")
    print(f"wrote {FIXTURE}")


class TestGoldenWorkloadTrace:
    def test_fixture_exists(self):
        assert FIXTURE.exists(), "golden wktrace missing; run regenerate()"

    def test_rerecording_is_byte_identical(self):
        fresh = golden_trace().to_jsonl()
        assert fresh == FIXTURE.read_text(encoding="utf-8"), (
            "golden workload trace drifted: capture encoding, app task "
            "generation, or engine schedule changed; if intentional, "
            "regenerate the fixture"
        )

    def test_fixture_loads_and_fingerprint_verifies(self):
        trace = WorkloadTrace.load(FIXTURE)  # load() re-checks the fingerprint
        assert trace.label == "boruvka"
        assert not trace.requires_order
        assert len(trace.commits) > SCALE  # MST contractions spawn children

    def test_fixture_replays_to_completion(self):
        workload = TraceReplayWorkload.load(FIXTURE)
        workload.make_engine(HybridController(0.25, m_max=64), seed=3).run()
        assert workload.replay_complete()
        assert workload.unrecorded_commits == 0

    def test_fixture_replay_is_select_backend_invariant(self):
        from repro import RunConfig
        from repro.api import run

        def leg(select):
            rec = TraceRecorder()
            run(
                RunConfig(workload=f"trace:{FIXTURE}", seed=5, select=select),
                recorder=rec,
            )
            return rec.to_jsonl()

        assert leg("workset") == leg("incremental")


@pytest.mark.parametrize("select", ["workset", "incremental"])
class TestGoldenWorkloadTraceOnEachBackend:
    """The fixture records and replays identically on either backend."""

    def test_recording_matches_fixture(self, select):
        assert golden_trace(select).to_jsonl() == FIXTURE.read_text(encoding="utf-8")

    def test_replay_completes(self, select):
        from repro.runtime.core import new_workset

        workload = TraceReplayWorkload.load(FIXTURE, workset=new_workset(select))
        workload.make_engine(HybridController(0.25, m_max=64), seed=3).run()
        assert workload.replay_complete()
