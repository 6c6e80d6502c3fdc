"""Property-based tests of the observability invariants (hypothesis).

Three properties pin down the contracts the replayer relies on:

* every recorded step partitions its launches exactly into commits and
  aborts;
* a controller's proposals never leave its ``[m_min, m_max]`` actuator
  range, whatever observation stream it sees;
* deterministic replay — rebuilding the controller from its traced
  configuration and feeding it the recorded observations — reproduces
  the recorded ``m_t`` trajectory for *any* seed/workload draw.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import HybridController
from repro.graph.generators import gnm_random
from repro.obs import TraceRecorder, trajectory, verify_trace
from repro.runtime.workloads import ConsumingGraphWorkload

# engine runs are comparatively slow; keep example counts modest
RUN_SETTINGS = settings(max_examples=15, deadline=None)


def record_run(controller, n, d, graph_seed, engine_seed, max_steps=25):
    rec = TraceRecorder()
    workload = ConsumingGraphWorkload(gnm_random(n, d, seed=graph_seed))
    engine = workload.make_engine(controller, seed=engine_seed, recorder=rec)
    engine.run(max_steps=max_steps)
    return rec.events


run_draws = st.tuples(
    st.integers(min_value=30, max_value=80),  # nodes
    st.integers(min_value=2, max_value=10),  # average degree
    st.integers(min_value=0, max_value=2**31 - 1),  # graph seed
    st.integers(min_value=0, max_value=2**31 - 1),  # engine seed
)


class TestStepAccounting:
    @RUN_SETTINGS
    @given(draw=run_draws)
    def test_commits_plus_aborts_equal_launched(self, draw):
        n, d, graph_seed, engine_seed = draw
        events = record_run(
            HybridController(0.25, m_max=32), n, d, graph_seed, engine_seed
        )
        steps = [e for e in events if e.kind == "step"]
        assert steps
        for e in steps:
            assert e.data["committed"] + e.data["aborted"] == e.data["launched"]
            assert 0 < e.data["launched"] <= e.data["requested"]
            assert e.data["launched"] <= e.data["workset_before"]


class TestActuatorBounds:
    @settings(max_examples=50, deadline=None)
    @given(
        rs=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=60
        ),
        m_min=st.integers(min_value=1, max_value=8),
        span=st.integers(min_value=0, max_value=100),
        rho=st.floats(min_value=0.05, max_value=0.9),
    )
    def test_proposals_stay_within_range(self, rs, m_min, span, rho):
        m_max = m_min + span
        controller = HybridController(rho, m0=m_min, m_min=m_min, m_max=m_max)
        for r in rs:
            m = controller.propose()
            assert m_min <= m <= m_max
            controller.observe(r, m)


class TestDeterministicReplay:
    @RUN_SETTINGS
    @given(
        draw=run_draws,
        rho=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_replay_reproduces_m_trajectory(self, draw, rho):
        n, d, graph_seed, engine_seed = draw
        events = record_run(
            HybridController(rho, m_max=48), n, d, graph_seed, engine_seed
        )
        reports = verify_trace(events)  # raises ReplayMismatchError on divergence
        assert len(reports) == 1
        ms, _ = trajectory(events)
        assert np.array_equal(reports[0].m_replayed, ms)
