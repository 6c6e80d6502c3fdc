"""Observability overhead gate.

The three channels (trace events, metrics, timed spans) are sold as
cheap enough to leave on.  This gate holds them to it: two fast engines
step through the same workload in lock-step — one with everything
disabled, one with all three channels active — and the instrumented
engine's median per-step time must stay within ``GATE_MAX_OVERHEAD`` of
the baseline's.  The instrumented run's span profile must also
*explain* the step wall-clock — per-phase times summing to at least
``GATE_MIN_COVERAGE`` of the ``step`` span — or the profiler is lying
about where the time goes.  Measurements land in ``BENCH_obs.json`` at
the repo root (uploaded as a CI artifact).

Steps alternate baseline/instrumented and each side is judged by its
per-step *median*, so a load spike hits a few samples on both sides
instead of masquerading as instrumentation cost.

The *sharded* leg applies the same discipline to distributed tracing
(:mod:`repro.obs.distributed`): two warm 2-shard worker pools — one
with a telemetry bus and halo-sequence stamping, one bare — resolve the
*same* batches in lock-step, alternating which goes first, and the
traced pool's median per-round time must stay within
``SHARD_GATE_MAX_OVERHEAD`` of the bare pool's.  (Whole-run A/B timing
is hopeless on a shared single-CPU runner: scheduler drift between runs
swamps a sub-5% signal; round-level interleaving makes both sides see
the same drift.)  Results land under the ``"sharded"`` key of the same
artifact, so both tests update ``BENCH_obs.json`` read-modify-write
instead of overwriting it.
"""

import json
import statistics
import time

from pathlib import Path

from repro.control.fixed import FixedController
from repro.graph.generators import gnm_random
from repro.obs import (
    SpanProfiler,
    TraceRecorder,
    activate,
    activate_metrics,
    activate_profiler,
    deactivate,
    deactivate_metrics,
    deactivate_profiler,
    profile_report,
    profiling,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime.workloads import ReplayGraphWorkload

GATE_MAX_OVERHEAD = 0.05  # instrumented may cost at most 5% extra
GATE_MIN_COVERAGE = 0.95  # phases must explain >= 95% of step wall-clock
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
# the kernel gate's case: heavy steps, so per-step work dominates noise
GATE_N, GATE_D, GATE_M, GATE_SEED = 5000, 8, 2500, 17
GATE_STEPS = 120  # alternating baseline/instrumented step pairs


def _update_bench(payload: dict) -> None:
    """Merge *payload* into ``BENCH_obs.json`` (read-modify-write).

    The two tests in this module own disjoint keys of one artifact, so
    each folds its results into whatever the other already wrote.
    """
    existing: dict = {}
    if BENCH_JSON.exists():
        try:
            existing = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing.update(payload)
    BENCH_JSON.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _gate_graph():
    graph = gnm_random(GATE_N, GATE_D, seed=GATE_SEED)
    graph.csr().edge_list  # warm the memoised view, as a stationary run would
    return graph


def _make_engine(graph, instrumented: bool, profiler=None):
    """A fast engine over *graph*; the instrumented one binds all channels.

    Engines capture the active recorder/registry/profiler at construction,
    so the channels only need to be globally active while this runs.
    """
    if instrumented:
        activate(TraceRecorder(capacity=4 * GATE_STEPS))
        activate_metrics(MetricsRegistry())
        activate_profiler(profiler)
    try:
        wl = ReplayGraphWorkload(graph.copy())
        return wl.make_engine(FixedController(GATE_M), seed=3, engine="fast")
    finally:
        if instrumented:
            deactivate()
            deactivate_metrics()
            deactivate_profiler()


def test_obs_overhead_gate():
    """All three channels on vs all off: < 5% median per-step overhead."""
    graph = _gate_graph()
    profiler = SpanProfiler()
    base_engine = _make_engine(graph, instrumented=False)
    instr_engine = _make_engine(graph, instrumented=True, profiler=profiler)

    def base_step() -> float:
        t0 = time.perf_counter_ns()
        base_engine.step()
        return time.perf_counter_ns() - t0

    def instr_step() -> float:
        # the kernel spans look the profiler up at call time, so it must
        # be globally active during the instrumented engine's steps
        activate_profiler(profiler)
        try:
            t0 = time.perf_counter_ns()
            instr_engine.step()
            return time.perf_counter_ns() - t0
        finally:
            deactivate_profiler()

    base_step(), instr_step()  # warm-up pair, discarded
    base_times, instr_times = [], []
    for _ in range(GATE_STEPS):
        base_times.append(base_step())
        instr_times.append(instr_step())
    base_median = statistics.median(base_times)
    instr_median = statistics.median(instr_times)
    overhead = instr_median / base_median - 1.0

    report = profile_report(profiler)
    _update_bench(
        {
            "case": {
                "graph": "gnm_random",
                "n": GATE_N,
                "d": GATE_D,
                "m": GATE_M,
                "steps": GATE_STEPS,
                "engine": "fast",
            },
            "baseline_median_step_ns": base_median,
            "instrumented_median_step_ns": instr_median,
            "overhead_fraction": overhead,
            "gate_max_overhead": GATE_MAX_OVERHEAD,
            "span_coverage": report.coverage,
            "gate_min_coverage": GATE_MIN_COVERAGE,
            "critical_phase": report.critical_phase,
            "phases": {
                p.name: {"total_ns": p.total_ns, "share": p.share}
                for p in report.phases
            },
        }
    )
    assert report.coverage >= GATE_MIN_COVERAGE, (
        f"span phases explain only {report.coverage:.1%} of step wall-clock "
        f"(need >= {GATE_MIN_COVERAGE:.0%})"
    )
    assert overhead < GATE_MAX_OVERHEAD, (
        f"observability overhead {overhead:.1%} >= {GATE_MAX_OVERHEAD:.0%} "
        f"(median step: baseline {base_median / 1e6:.3f} ms, "
        f"instrumented {instr_median / 1e6:.3f} ms)"
    )


SHARD_GATE_MAX_OVERHEAD = 0.05  # distributed tracing: < 5% per round
SHARD_COUNT = 2
# heavy rounds, same reasoning as the step gate: per-round work must
# dominate the (measured ~50us) fixed cost of the traced path
SHARD_N, SHARD_D, SHARD_M = 5000, 8, 2500
SHARD_ROUNDS = 60  # lock-step round pairs, after SHARD_WARMUP discarded
SHARD_WARMUP = 5  # covers worker spawn + first-resolve edge shipping


def test_sharded_tracing_overhead_gate(tmp_path):
    """Distributed tracing on vs off at 2 shards: < 5% median per-round.

    Two warm :class:`~repro.runtime.sharded.ShardPool`\\ s resolve the
    same pre-drawn batches in lock-step.  The traced pool carries the
    full distributed-tracing path — a halo sequence number threaded
    through every round message, ``shard_round`` telemetry assembled in
    the workers and shipped back over the pipes, and supervisor-side
    ``ingest``/``note_round`` bookkeeping; the bare pool runs exactly as
    an untraced ``run_sharded`` would.  Which pool resolves first
    alternates per round so cache warmth and scheduler drift cancel.
    The per-shard stream files are written once at bus close (amortised
    across the run), outside the per-round budget this gate holds.
    Results land under the ``"sharded"`` key of BENCH_obs.json.
    """
    import gc

    import numpy as np

    from repro.graph.partition import partition_graph
    from repro.obs.distributed import TelemetryBus
    from repro.runtime.sharded import ShardPool
    from repro.runtime.task import Task

    gc.collect()  # don't let the per-step gate's garbage bill this one
    graph = gnm_random(SHARD_N, SHARD_D, seed=GATE_SEED)
    part = partition_graph(graph, SHARD_COUNT)
    rng = np.random.default_rng(3)
    batches = [
        [
            Task(payload=int(p))
            for p in rng.choice(SHARD_N, size=SHARD_M, replace=False)
        ]
        for _ in range(SHARD_WARMUP + SHARD_ROUNDS)
    ]

    base_pool = ShardPool(SHARD_COUNT)
    traced_pool = ShardPool(SHARD_COUNT)
    bus = TelemetryBus(
        SHARD_COUNT, run_id="bench", trace_dir=tmp_path / "trace"
    )
    traced_pool.bind_telemetry(bus)
    base_times, traced_times = [], []
    try:
        for r, batch in enumerate(batches[:SHARD_WARMUP]):
            base_pool.resolve(r, batch, part, graph)
            traced_pool.resolve(r, batch, part, graph, seq=r)
        for r, batch in enumerate(batches[SHARD_WARMUP:]):
            base_first = r % 2 == 0
            for side in (0, 1):
                if (side == 0) == base_first:
                    t0 = time.perf_counter()
                    base_pool.resolve(r, batch, part, graph)
                    base_times.append(time.perf_counter() - t0)
                else:
                    t0 = time.perf_counter()
                    traced_pool.resolve(r, batch, part, graph, seq=r)
                    traced_times.append(time.perf_counter() - t0)
    finally:
        base_pool.close()
        traced_pool.close()
        bus.close()
    base_median = statistics.median(base_times)
    traced_median = statistics.median(traced_times)
    overhead = traced_median / base_median - 1.0
    _update_bench(
        {
            "sharded": {
                "case": {
                    "graph": "gnm_random",
                    "n": SHARD_N,
                    "d": SHARD_D,
                    "m": SHARD_M,
                    "rounds": SHARD_ROUNDS,
                    "method": "lock-step pools, alternating order",
                },
                "shards": SHARD_COUNT,
                "baseline_median_round_seconds": base_median,
                "traced_median_round_seconds": traced_median,
                "overhead_fraction": overhead,
                "gate_max_overhead": SHARD_GATE_MAX_OVERHEAD,
            }
        }
    )
    assert overhead < SHARD_GATE_MAX_OVERHEAD, (
        f"distributed-tracing overhead {overhead:.1%} >= "
        f"{SHARD_GATE_MAX_OVERHEAD:.0%} (median round: baseline "
        f"{base_median * 1e3:.3f} ms, traced {traced_median * 1e3:.3f} ms)"
    )


def test_sampled_profiling_cuts_span_cost():
    """1-in-N sampling must record ~1/N of the steps, none in between."""
    graph = gnm_random(1000, 8, seed=5)
    with profiling(sample_every=10) as profiler:
        wl = ReplayGraphWorkload(graph.copy())
        engine = wl.make_engine(FixedController(200), seed=3, engine="fast")
        for _ in range(100):
            engine.step()
    report = profile_report(profiler)
    assert report.steps == 10  # steps 0, 10, ..., 90
    assert report.phases  # sampled steps still carry their phase spans
