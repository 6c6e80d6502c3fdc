"""Micro-benchmarks of the library's hot kernels.

Not tied to a paper artefact — these guard the performance of the
primitives every experiment leans on: the vectorised commit kernel, graph
snapshotting, engine stepping, Delaunay insertion and the generators.
"""

import numpy as np
import pytest

from repro.apps.delaunay.triangulation import Triangulation
from repro.control.hybrid import HybridController
from repro.graph.generators import gnm_random
from repro.model.permutation import PrefixSampler
from repro.runtime.workloads import ReplayGraphWorkload


@pytest.fixture(scope="module")
def big_graph():
    return gnm_random(2000, 16, seed=0)


def test_committed_mask_kernel(benchmark, big_graph):
    snap = big_graph.snapshot()
    sampler = PrefixSampler(snap, np.random.default_rng(1))

    def draw():
        return sampler.committed(1000).sum()

    total = benchmark(draw)
    assert 0 < total < 1000


def test_snapshot_construction(benchmark, big_graph):
    snap = benchmark(big_graph.snapshot)
    assert snap.num_edges == big_graph.num_edges


def test_graph_generation(benchmark):
    g = benchmark.pedantic(lambda: gnm_random(2000, 16, seed=2), rounds=5, iterations=1)
    assert g.num_edges == 16000


def test_engine_step_throughput(benchmark, big_graph):
    wl = ReplayGraphWorkload(big_graph.copy())
    engine = wl.make_engine(HybridController(0.2), seed=3)

    def hundred_steps():
        for _ in range(100):
            engine.step()

    benchmark.pedantic(hundred_steps, rounds=3, iterations=1)
    assert engine.steps_executed >= 300


@pytest.mark.parametrize("m", [100, 500, 1500])
def test_committed_mask_scaling(benchmark, big_graph, m):
    """The MC kernel's cost scales with the prefix size, not n."""
    snap = big_graph.snapshot()
    sampler = PrefixSampler(snap, np.random.default_rng(m))
    benchmark(lambda: sampler.committed(m).sum())


def test_boruvka_throughput(benchmark):
    from repro.apps.boruvka import BoruvkaMST, random_weighted_graph
    from repro.control.fixed import FixedController

    def run():
        app = BoruvkaMST(random_weighted_graph(500, 8, seed=5))
        app.make_engine(FixedController(32), seed=6).run(max_steps=10**5)
        return app

    app = benchmark.pedantic(run, rounds=3, iterations=1)
    assert app.num_components() == 1


def test_ordered_engine_throughput(benchmark):
    from repro.apps.des import DiscreteEventSimulation, QueueingNetwork
    from repro.control.fixed import FixedController

    net = QueueingNetwork(30, avg_degree=3.0, seed=7)

    def run():
        sim = DiscreteEventSimulation(net, num_jobs=40, end_time=15.0, seed=8)
        return sim.make_engine(FixedController(8), seed=9).run(max_steps=10**6)

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.total_committed > 0


def test_delaunay_insertion(benchmark):
    rng = np.random.default_rng(4)
    base = Triangulation.from_points(rng.random((300, 2)).tolist())

    points = iter(rng.random((20000, 2)).tolist())

    def insert_one():
        base.insert(next(points))

    benchmark(insert_one)
    assert base.check_consistency()


# ---------------------------------------------------------------------------
# fast-path regression gate
# ---------------------------------------------------------------------------
#
# The fast engine path only earns its complexity if it stays well ahead of
# the per-task neighbour scan it replaces.  The gate resolves one full
# commit-order prefix of gnm_random(5000, d=8) both ways — the reference
# walk exactly as ExplicitGraphPolicy.resolve performs it (sequential
# isdisjoint against the committed set), and the fast path's slot
# projection + greedy_commit_mask_from_slots — writes the measurements to
# BENCH_kernels.json at the repo root, and fails if the speedup drops
# below 5x.  The end-to-end policy.resolve vs .resolve_fast timings (which
# add identical Task bookkeeping to both sides) are gated separately at
# GATE_MIN_POLICY_SPEEDUP — the policy phase sits far below the raw-kernel
# ratio, so the aggregate gate alone would let it regress unnoticed.

import json
import time
from pathlib import Path

from repro.control.fixed import FixedController
from repro.runtime.conflict import ExplicitGraphPolicy
from repro.runtime.kernels import greedy_commit_mask_from_slots
from repro.runtime.task import CallbackOperator, Task

GATE_MIN_SPEEDUP = 5.0
#: separate floor for the policy-level (Task bookkeeping included) phase —
#: it sits well below the raw-kernel ratio, so the 5x aggregate gate alone
#: would let a policy-layer regression hide behind kernel headroom
GATE_MIN_POLICY_SPEEDUP = 2.5
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
GATE_N, GATE_D, GATE_SEED = 5000, 8, 17


def _gate_graph():
    graph = gnm_random(GATE_N, GATE_D, seed=GATE_SEED)
    graph.csr().edge_list  # warm the memoised view, as a stationary run would
    return graph


def _reference_walk_mask(graph, prefix: list) -> np.ndarray:
    """The per-task scan of ExplicitGraphPolicy.resolve, verbatim."""
    committed: set = set()
    mask = np.zeros(len(prefix), dtype=bool)
    for slot, node in enumerate(prefix):
        if committed.isdisjoint(graph.neighbors(node)):
            committed.add(node)
            mask[slot] = True
    return mask


def _fast_path_mask(snapshot, prefix: np.ndarray) -> np.ndarray:
    """The slot projection + kernel of ExplicitGraphPolicy.resolve_fast."""
    m = prefix.shape[0]
    pos = np.full(snapshot.num_nodes, -1, dtype=np.int64)
    pos[prefix] = np.arange(m, dtype=np.int64)
    u, v = snapshot.edge_list
    pu, pv = pos[u], pos[v]
    if m != snapshot.num_nodes:
        both = np.flatnonzero((pu >= 0) & (pv >= 0))
        pu, pv = pu[both], pv[both]
    return greedy_commit_mask_from_slots(
        np.maximum(pu, pv), np.minimum(pu, pv), m, checked=False
    )


def _resolution_case(n: int, d: int, m: int, seed: int):
    graph = gnm_random(n, d, seed=seed)
    policy = ExplicitGraphPolicy(graph)
    operator = CallbackOperator(neighborhood=lambda t: set(), apply=lambda t: [])
    nodes = np.random.default_rng(seed).permutation(graph.nodes())[:m]
    batch = [Task(payload=int(node)) for node in nodes]
    graph.csr()  # warm the memoised CSR view, as a stationary run would
    return policy, operator, batch


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_fast_path_speedup_gate():
    """fast >= 5x reference on gnm_random(5000, d=8); records the ratios."""
    graph = _gate_graph()
    snapshot = graph.csr()
    prefix = np.random.default_rng(GATE_SEED).permutation(GATE_N).astype(np.int64)

    ref_mask = _reference_walk_mask(graph, prefix.tolist())
    fast_mask = _fast_path_mask(snapshot, prefix)
    assert np.array_equal(ref_mask, fast_mask)

    prefix_list = prefix.tolist()
    t_ref = _best_of(lambda: _reference_walk_mask(graph, prefix_list))
    t_fast = _best_of(lambda: _fast_path_mask(snapshot, prefix))
    speedup = t_ref / t_fast

    # context: the policy-level timings, Task bookkeeping included
    policy, operator, batch = _resolution_case(GATE_N, GATE_D, GATE_N, GATE_SEED)
    t_ref_policy = _best_of(lambda: policy.resolve(batch, operator))
    t_fast_policy = _best_of(lambda: policy.resolve_fast(batch, operator))

    BENCH_JSON.write_text(
        json.dumps(
            {
                "case": {"graph": "gnm_random", "n": GATE_N, "d": GATE_D, "m": GATE_N},
                "reference_seconds": t_ref,
                "fast_seconds": t_fast,
                "speedup": speedup,
                "gate_min_speedup": GATE_MIN_SPEEDUP,
                "committed": int(ref_mask.sum()),
                "aborted": int((~ref_mask).sum()),
                "policy_resolve": {
                    "reference_seconds": t_ref_policy,
                    "fast_seconds": t_fast_policy,
                    "speedup": t_ref_policy / t_fast_policy,
                    "gate_min_speedup": GATE_MIN_POLICY_SPEEDUP,
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    policy_speedup = t_ref_policy / t_fast_policy
    assert policy_speedup >= GATE_MIN_POLICY_SPEEDUP, (
        f"policy-level fast path regressed: {policy_speedup:.1f}x < "
        f"{GATE_MIN_POLICY_SPEEDUP}x (ref {t_ref_policy * 1e3:.2f} ms, "
        f"fast {t_fast_policy * 1e3:.2f} ms)"
    )
    assert speedup >= GATE_MIN_SPEEDUP, (
        f"fast path regressed: {speedup:.1f}x < {GATE_MIN_SPEEDUP}x "
        f"(ref {t_ref * 1e3:.2f} ms, fast {t_fast * 1e3:.2f} ms)"
    )


def test_resolve_fast_throughput(benchmark):
    policy, operator, batch = _resolution_case(5000, 8, 2500, seed=17)
    outcome = benchmark(lambda: policy.resolve_fast(batch, operator))
    assert len(outcome.committed) + len(outcome.aborted) == len(batch)


def test_resolve_reference_throughput(benchmark):
    policy, operator, batch = _resolution_case(5000, 8, 2500, seed=17)
    outcome = benchmark(lambda: policy.resolve(batch, operator))
    assert len(outcome.committed) + len(outcome.aborted) == len(batch)


def test_full_engine_fast_vs_reference_step():
    """End-to-end sanity: one fast engine step is never slower than 1x ref."""
    graph = gnm_random(5000, 8, seed=21)

    def steps(mode):
        wl = ReplayGraphWorkload(graph.copy())
        engine = wl.make_engine(FixedController(2500), seed=3, engine=mode)
        engine.step()  # warm caches and JIT-able paths
        return _best_of(lambda: engine.step(), repeats=3)

    t_ref = steps("reference")
    t_fast = steps("fast")
    assert t_fast <= t_ref  # the full step includes shared overhead
