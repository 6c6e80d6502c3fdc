"""Golden-trace regression test.

A checked-in JSONL fixture records a reference run of the paper's
Algorithm 1 (:class:`HybridController`) on a ``gnm_random(200, d=8)``
draining workload.  The test re-runs the identical workload and demands
*byte-identical* canonical JSONL — any change to the engine's step
semantics, the controller's decision rules, the event schema, or the
canonical serialisation shows up as a diff here.  The fixture must also
keep replaying deterministically after reload.

Regenerate (only after an intentional semantic change!) with::

    PYTHONPATH=src python -c "from tests.obs.test_golden import regenerate; regenerate()"
"""

from pathlib import Path

import numpy as np

from repro.control import HybridController
from repro.graph.generators import gnm_random
from repro.obs import TraceRecorder, load_jsonl, trajectory, verify_trace
from repro.runtime.workloads import ConsumingGraphWorkload

FIXTURE = Path(__file__).parent / "fixtures" / "golden_hybrid_gnm200_d8.jsonl"

GRAPH_SEED = 2011  # SPAA 2011
ENGINE_SEED = 8
MAX_STEPS = 60


def golden_trace() -> TraceRecorder:
    """The reference run: Algorithm 1 on gnm_random(200, d=8)."""
    rec = TraceRecorder()
    workload = ConsumingGraphWorkload(gnm_random(200, 8, seed=GRAPH_SEED))
    controller = HybridController(0.25, m_max=64)
    engine = workload.make_engine(controller, seed=ENGINE_SEED, recorder=rec)
    engine.run(max_steps=MAX_STEPS)
    return rec


def regenerate() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    golden_trace().save_jsonl(FIXTURE)
    print(f"wrote {FIXTURE}")


class TestGoldenTrace:
    def test_fixture_exists(self):
        assert FIXTURE.exists(), "golden fixture missing; run regenerate()"

    def test_rerun_is_byte_identical(self):
        fresh = golden_trace().to_jsonl()
        assert fresh == FIXTURE.read_text(encoding="utf-8"), (
            "golden trace drifted: engine/controller/serialisation semantics "
            "changed; if intentional, regenerate the fixture"
        )

    def test_fixture_replays_deterministically(self):
        events = load_jsonl(FIXTURE)
        reports = verify_trace(events)
        assert len(reports) == 1
        assert reports[0].controller_type == "HybridController"

    def test_fixture_matches_live_trajectory(self):
        events = load_jsonl(FIXTURE)
        ms_fixture, rs_fixture = trajectory(events)
        ms_live, rs_live = trajectory(golden_trace().events)
        assert np.array_equal(ms_fixture, ms_live)
        assert np.array_equal(rs_fixture, rs_live)

    def test_fixture_shape_sanity(self):
        events = load_jsonl(FIXTURE)
        kinds = [e.kind for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert 0 < kinds.count("step") == kinds.count("select") <= MAX_STEPS
        assert "decision" in kinds
        assert events[0].data["seed"] == ENGINE_SEED
        steps = [e for e in events if e.kind == "step"]
        total_committed = sum(e.data["committed"] for e in steps)
        assert total_committed == 200  # the whole workload drained
