"""Cross-shard equivalence battery for the sharded commit order.

The sharded policy's correctness contract has two halves:

* **Degenerate exactness** — ``shards=1`` is not "approximately" the
  unordered policy, it *is* the unordered policy: byte-identical traces
  (including the engine RNG's final generator state) on the golden
  corpus, on both engine modes, against the checked-in golden fixture.
* **Multi-shard conflict-serializability** — with any shard count, the
  set of nodes committed in one round must be pairwise non-adjacent in
  the graph as it stood *at that round*.  A trace validator replays the
  ``halo_exchange`` events against an independently mutated graph copy
  to enforce it; the fast path, the reference path, and the
  process-backed :func:`repro.runtime.run_sharded` must all agree
  byte-for-byte.
"""

from __future__ import annotations

import json
import os
from itertools import combinations
from pathlib import Path

import pytest

from repro.config import RunConfig
from repro.control import HybridController
from repro.graph.generators import gnm_random
from repro.obs import HALO_EXCHANGE, TraceRecorder
from repro.runtime.core import Engine
from repro.runtime.policies import ShardedCommitOrder, UnorderedCommitOrder
from repro.runtime.sharded import run_sharded
from repro.runtime.workloads import ConsumingGraphWorkload

# golden-corpus settings (tests/obs/test_golden.py) with a CI-rotatable
# engine seed: the flaky-hunter varies REPRO_TEST_SEED to shake out
# seed-dependent equivalence failures
BASE_SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
GRAPH_SEED = 2011
ENGINE_SEED = 8 + BASE_SEED
MAX_STEPS = 40

FIXTURE = (
    Path(__file__).parent.parent / "obs" / "fixtures" / "golden_hybrid_gnm200_d8.jsonl"
)


def _graph():
    return gnm_random(200, 8, seed=GRAPH_SEED)


def _api_trace(order, *, workload="consuming", mode=None, shards=None, seed=None):
    """One recorded ``api.run`` over the shared corpus; returns (jsonl, result)."""
    from repro.api import run as api_run

    recorder = TraceRecorder()
    config = RunConfig(
        workload=workload,
        rho=0.25,
        m_max=64,
        order=order,
        shards=shards,
        max_steps=MAX_STEPS,
        engine=mode,
    )
    res = api_run(
        config,
        graph=_graph(),
        seed=ENGINE_SEED if seed is None else seed,
        recorder=recorder,
    )
    return recorder, res


def _engine_run(order_cls, mode, **order_kwargs):
    """One manually wired engine run; returns (recorder, engine)."""
    recorder = TraceRecorder()
    workload = ConsumingGraphWorkload(_graph())
    order = order_cls(workload.policy, **order_kwargs)
    engine = Engine(
        workset=workload.workset,
        operator=workload.operator,
        controller=HybridController(0.25, m_max=64),
        order=order,
        seed=ENGINE_SEED,
        recorder=recorder,
        engine=mode,
    )
    engine.run(max_steps=MAX_STEPS)
    return recorder, engine


class TestOneShardByteIdentity:
    @pytest.mark.parametrize("mode", ["reference", "fast"])
    @pytest.mark.parametrize("workload", ["consuming", "replay"])
    def test_trace_identical_to_unordered(self, mode, workload):
        sharded, _ = _api_trace("sharded", workload=workload, mode=mode, shards=1)
        unordered, _ = _api_trace("unordered", workload=workload, mode=mode)
        assert sharded.to_jsonl() == unordered.to_jsonl()

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_rng_generator_state_identical(self, mode):
        # byte-identical traces could still hide divergent RNG consumption
        # (e.g. an extra draw that never changes this run's decisions);
        # identical final generator state rules that out
        _, sharded = _engine_run(ShardedCommitOrder, mode, shards=1)
        _, unordered = _engine_run(UnorderedCommitOrder, mode)
        assert (
            sharded.rng.bit_generator.state == unordered.rng.bit_generator.state
        )

    def test_agrees_with_golden_fixture_modulo_engine_name(self):
        # the order path stamps engine="Engine" in run_start where the
        # golden fixture's make_engine path stamped "OptimisticEngine";
        # every other byte must match the checked-in fixture
        if ENGINE_SEED != 8:
            pytest.skip("golden fixture is pinned to the seed-0 corpus")
        recorder, _ = _engine_run(ShardedCommitOrder, None, shards=1)
        ours = [json.loads(line) for line in recorder.to_jsonl().splitlines()]
        golden = [
            json.loads(line)
            for line in FIXTURE.read_text(encoding="utf-8").splitlines()
        ]
        # golden runs 60 steps; compare the common 40-step prefix
        assert ours[0]["kind"] == golden[0]["kind"] == "run_start"
        assert ours[0]["data"].pop("engine") == "Engine"
        assert golden[0]["data"].pop("engine") == "OptimisticEngine"
        assert ours[0] == golden[0]
        # golden runs 60 steps, ours 40: our body must be a golden prefix
        assert ours[-1]["kind"] == "run_end"
        body = ours[1:-1]
        assert body == golden[1 : 1 + len(body)]


class TestMultiShardEquivalence:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    @pytest.mark.parametrize("workload", ["consuming", "replay"])
    def test_fast_equals_reference(self, shards, workload):
        fast, _ = _api_trace(f"sharded:{shards}", workload=workload, mode="fast")
        ref, _ = _api_trace(f"sharded:{shards}", workload=workload, mode="reference")
        assert fast.to_jsonl() == ref.to_jsonl()

    def test_config_field_equals_spec_param(self):
        spec, _ = _api_trace("sharded:4")
        field, _ = _api_trace("sharded", shards=4)
        assert spec.to_jsonl() == field.to_jsonl()

    def test_not_degenerate(self):
        recorder, res = _api_trace("sharded:4")
        halo = [ev for ev in recorder.events if ev.kind == HALO_EXCHANGE]
        assert halo, "multi-shard run emitted no halo_exchange events"
        assert res.total_aborted > 0 and res.total_committed > 0
        assert sum(ev.data["halo_aborts"] for ev in halo) > 0, (
            "corpus never exercised a cut-edge abort"
        )


def _validate_serializability(recorder, graph, consuming: bool):
    """Replay halo_exchange rounds against *graph*, asserting independence."""
    rounds = 0
    for ev in recorder.events:
        if ev.kind != HALO_EXCHANGE:
            continue
        committed = ev.data["committed_nodes"]
        assert len(committed) == len(set(committed)), "node committed twice"
        for u, v in combinations(committed, 2):
            assert not graph.has_edge(u, v), (
                f"step {ev.step}: committed neighbours {u}-{v} "
                "(conflict-serializability violated)"
            )
        if consuming:
            for u in committed:
                graph.remove_node(u)
        rounds += 1
    return rounds


class TestConflictSerializability:
    @pytest.mark.parametrize("shards", [2, 4, 8])
    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_no_committed_neighbours_per_round(self, shards, mode):
        recorder, _ = _api_trace(f"sharded:{shards}", mode=mode)
        rounds = _validate_serializability(recorder, _graph(), consuming=True)
        assert rounds > 0

    def test_replay_rounds_validate_against_static_graph(self):
        recorder, _ = _api_trace("sharded:4", workload="replay")
        rounds = _validate_serializability(recorder, _graph(), consuming=False)
        assert rounds == MAX_STEPS


class TestProcessBackedRuntime:
    @pytest.mark.parametrize("workload", ["consuming", "replay"])
    def test_run_sharded_matches_in_process(self, workload):
        config = RunConfig(
            workload=workload,
            rho=0.25,
            m_max=64,
            order="sharded:3",
            max_steps=25,
        )
        pool_rec = TraceRecorder()
        run_sharded(config, _graph(), seed=ENGINE_SEED, recorder=pool_rec)

        from repro.api import run as api_run

        local_rec = TraceRecorder()
        api_run(config, graph=_graph(), seed=ENGINE_SEED, recorder=local_rec)
        assert pool_rec.to_jsonl() == local_rec.to_jsonl()

    def test_one_shard_run_sharded_matches_unordered(self):
        config = RunConfig(
            workload="consuming",
            rho=0.25,
            m_max=64,
            order="sharded",
            shards=1,
            max_steps=25,
        )
        rec = TraceRecorder()
        run_sharded(config, _graph(), seed=ENGINE_SEED, recorder=rec)

        from repro.api import run as api_run

        plain_config = RunConfig(
            workload="consuming",
            rho=0.25,
            m_max=64,
            order="unordered",
            max_steps=25,
        )
        plain = TraceRecorder()
        api_run(plain_config, graph=_graph(), seed=ENGINE_SEED, recorder=plain)
        assert rec.to_jsonl() == plain.to_jsonl()

    def test_pool_run_defaults_to_config_seed(self):
        # no seed= anywhere: both entry points must draw config.seed, not
        # fresh OS entropy, and agree step for step
        config = RunConfig(
            workload="consuming",
            rho=0.25,
            m_max=64,
            order="sharded:2",
            max_steps=25,
            seed=ENGINE_SEED,
        )
        pool_rec = TraceRecorder()
        pool = run_sharded(config, _graph(), recorder=pool_rec)

        from repro.api import run as api_run

        local_rec = TraceRecorder()
        local = api_run(config, graph=_graph(), recorder=local_rec)
        assert [s.as_dict() for s in pool.steps] == [s.as_dict() for s in local.steps]
        assert pool_rec.to_jsonl() == local_rec.to_jsonl()
