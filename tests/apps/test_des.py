"""Tests for repro.apps.des — parallel discrete-event simulation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.des import DiscreteEventSimulation, QueueingNetwork, sequential_history
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import ApplicationError


@pytest.fixture(scope="module")
def network():
    return QueueingNetwork(20, avg_degree=3.0, seed=1)


@pytest.fixture(scope="module")
def reference(network):
    return sequential_history(network, num_jobs=25, end_time=30.0, seed=2)


class TestQueueingNetwork:
    def test_strongly_connected_ring_backbone(self, network):
        for s in range(network.num_stations):
            assert (s + 1) % network.num_stations in network.neighbors[s]

    def test_routing_deterministic(self, network):
        assert network.route(3, 0.42) == network.route(3, 0.42)

    def test_routing_covers_neighbors(self, network):
        targets = {network.route(0, d / 100.0) for d in range(100)}
        assert targets == set(network.neighbors[0])

    def test_validation(self):
        with pytest.raises(ApplicationError):
            QueueingNetwork(1)


class TestAgainstSequentialOracle:
    @pytest.mark.parametrize("m", [1, 4, 16, 64])
    def test_history_matches_sequential_exactly(self, network, reference, m):
        """The headline PDES invariant: any allocation yields the identical
        committed event history."""
        sim = DiscreteEventSimulation(network, num_jobs=25, end_time=30.0, seed=2)
        sim.make_engine(FixedController(m), seed=3).run(max_steps=10**6)
        assert sim.history == reference

    def test_history_chronological(self, network):
        sim = DiscreteEventSimulation(network, num_jobs=25, end_time=30.0, seed=2)
        sim.make_engine(FixedController(16), seed=4).run(max_steps=10**6)
        assert sim.check_history_ordered()

    def test_hybrid_controller_matches_too(self, network, reference):
        sim = DiscreteEventSimulation(network, num_jobs=25, end_time=30.0, seed=2)
        sim.make_engine(HybridController(0.3), seed=5).run(max_steps=10**6)
        assert sim.history == reference

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 50), st.integers(1, 32))
    def test_property_any_seed_any_m(self, seed, m):
        net = QueueingNetwork(8, avg_degree=2.0, seed=seed)
        ref = sequential_history(net, num_jobs=6, end_time=10.0, seed=seed)
        sim = DiscreteEventSimulation(net, num_jobs=6, end_time=10.0, seed=seed)
        sim.make_engine(FixedController(m), seed=seed).run(max_steps=10**6)
        assert sim.history == ref


class TestParallelismStructure:
    def test_speculation_shortens_makespan(self, network):
        runs = {}
        for m in (1, 8):
            sim = DiscreteEventSimulation(network, num_jobs=25, end_time=30.0, seed=2)
            res = sim.make_engine(FixedController(m), seed=6).run(max_steps=10**6)
            runs[m] = len(res)
        assert runs[8] < runs[1]

    def test_overspeculation_wastes_without_speedup(self, network):
        """Ordered parallelism saturates: m=64 no faster than m=8, far
        more aborts — §5's 'ordered is hard' in one assertion."""
        outcomes = {}
        for m in (8, 64):
            sim = DiscreteEventSimulation(network, num_jobs=25, end_time=30.0, seed=2)
            eng = sim.make_engine(FixedController(m), seed=7)
            res = eng.run(max_steps=10**6)
            outcomes[m] = (len(res), eng.conflict_aborts_total + eng.order_aborts_total)
        steps8, aborts8 = outcomes[8]
        steps64, aborts64 = outcomes[64]
        assert steps64 >= 0.8 * steps8  # no real speedup left
        assert aborts64 > 2 * aborts8  # but much more wasted work

    def test_order_aborts_happen(self, network):
        sim = DiscreteEventSimulation(network, num_jobs=25, end_time=30.0, seed=2)
        eng = sim.make_engine(FixedController(16), seed=8)
        eng.run(max_steps=10**6)
        assert eng.order_aborts_total > 0
        assert eng.conflict_aborts_total > 0


class TestValidation:
    def test_bad_parameters(self, network):
        with pytest.raises(ApplicationError):
            DiscreteEventSimulation(network, num_jobs=0, end_time=10.0)
        with pytest.raises(ApplicationError):
            DiscreteEventSimulation(network, num_jobs=5, end_time=0.0)

    def test_event_count_grows_with_end_time(self, network):
        short = sequential_history(network, num_jobs=10, end_time=5.0, seed=3)
        long = sequential_history(network, num_jobs=10, end_time=20.0, seed=3)
        assert len(long) > len(short)

    def test_short_history_is_prefix_of_long(self, network):
        """Chains are deterministic: extending the horizon only appends."""
        short = sequential_history(network, num_jobs=10, end_time=5.0, seed=3)
        long = sequential_history(network, num_jobs=10, end_time=20.0, seed=3)
        assert [e for e in long if e.time <= 5.0] == short
