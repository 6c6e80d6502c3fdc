"""The benchmark's workloads: seeded inputs, run configs, one run, checks.

Inputs are generated here with NumPy from the seed; the program only
receives the built input object (a ``CCGraph`` or a Borůvka
``WeightedGraph``).  Every run uses the ``RunConfig`` defaults for the
engine path (``engine=None``, ``select=None``, hybrid controller,
ρ = 0.25) unless the matrix mode pins a combination.
"""

from __future__ import annotations

import gc
import hashlib
import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

RHO = 0.25
M_MAX = 16384
DEGREE = 8


@dataclass(frozen=True)
class Spec:
    """One workload: input family and size, and the run it drives."""

    name: str
    input: str  # "gnm" (CCGraph) or "weighted" (Borůvka WeightedGraph)
    nodes: int
    workload: str  # RunConfig.workload
    max_steps: "int | None" = None
    order: "str | None" = None
    pool: bool = False  # run through repro.runtime.run_sharded

    def scaled(self, scale: float) -> "Spec":
        nodes = max(64, int(round(self.nodes * scale)))
        return Spec(self.name, self.input, nodes, self.workload,
                    self.max_steps, self.order, self.pool)


SPECS = {
    spec.name: spec
    for spec in (
        Spec("replay-200k", "gnm", 200_000, "replay", max_steps=60),
        Spec("drain-200k", "gnm", 200_000, "consuming"),
        Spec("boruvka-20k", "weighted", 20_000, "boruvka"),
        Spec("shard2-200k", "gnm", 200_000, "replay", max_steps=60,
             order="sharded:2", pool=True),
    )
}


# -- inputs (benchmark side) ---------------------------------------------


def gnm_edges(nodes: int, degree: int, rng: np.random.Generator) -> np.ndarray:
    """G(n, M) edge array ``int64[M, 2]``: M = n·d/2 distinct pairs, u < v."""
    target = nodes * degree // 2
    edges = np.empty((0, 2), dtype=np.int64)
    while edges.shape[0] < target:
        draw = rng.integers(0, nodes, size=(2 * target, 2), dtype=np.int64)
        draw = draw[draw[:, 0] != draw[:, 1]]
        draw.sort(axis=1)
        edges = np.concatenate([edges, draw])
        _, first = np.unique(edges[:, 0] * nodes + edges[:, 1], return_index=True)
        edges = edges[np.sort(first)]  # keep first occurrences in draw order
    return edges[:target]


def weighted_edges(nodes: int, degree: int, rng: np.random.Generator):
    """Connected weighted graph: a random spanning tree plus G(n, M) pairs.

    Weights are distinct integers stored as floats, so the MST is unique
    and its weight sums exactly in any order.
    """
    order = rng.permutation(nodes)
    picks = (rng.random(nodes - 1) * np.arange(1, nodes)).astype(np.int64)
    tree = np.stack([order[1:], order[picks]], axis=1)
    tree.sort(axis=1)
    extra = gnm_edges(nodes, degree, rng)
    edges = np.concatenate([tree, extra])
    _, first = np.unique(edges[:, 0] * nodes + edges[:, 1], return_index=True)
    edges = edges[np.sort(first)][: max(nodes * degree // 2, nodes - 1)]
    weights = (rng.permutation(edges.shape[0]) + 1).astype(np.float64)
    return edges, weights


#: tags the input stream: ``default_rng(seed)`` would replay the very
#: draws the program's own generator makes from ``RunConfig.seed``, and
#: the engine would then sample edges of the input as its batches
INPUT_STREAM = 0x1B7E


def make_inputs(spec: Spec, seed: int) -> dict:
    rng = np.random.default_rng([INPUT_STREAM, seed])
    if spec.input == "gnm":
        inputs = {"edges": gnm_edges(spec.nodes, DEGREE, rng)}
    else:
        edges, weights = weighted_edges(spec.nodes, DEGREE, rng)
        inputs = {"edges": edges, "weights": weights}
    digest = hashlib.sha256(str(spec.nodes).encode())
    for key in sorted(inputs):
        digest.update(np.ascontiguousarray(inputs[key]).tobytes())
    inputs["fingerprint"] = digest.hexdigest()[:16]
    return inputs


def build_source(spec: Spec, inputs: dict):
    """The program's input object, built from the benchmark's arrays."""
    edges = inputs["edges"]
    if spec.input == "gnm":
        from repro.graph.ccgraph import CCGraph

        return CCGraph.from_edges(
            spec.nodes, zip(edges[:, 0].tolist(), edges[:, 1].tolist())
        )
    from repro.apps.boruvka import WeightedGraph

    graph = WeightedGraph(spec.nodes)
    add = graph.add_edge
    for u, v, w in zip(edges[:, 0].tolist(), edges[:, 1].tolist(),
                       inputs["weights"].tolist()):
        add(u, v, w)
    return graph


def make_config(spec: Spec, seed: int, engine=None, select=None):
    from repro.config import RunConfig

    return RunConfig(
        workload=spec.workload,
        seed=seed,
        rho=RHO,
        m_max=M_MAX,
        max_steps=spec.max_steps,
        order=spec.order,
        engine=engine,
        select=select,
    )


# -- one run ---------------------------------------------------------------


@contextmanager
def captured_workload():
    """Record the workload object ``api.run`` builds (one call per run)."""
    from repro.registry import WORKLOADS

    seen = []
    create = WORKLOADS.create

    def capture(*args, **kwargs):
        workload = create(*args, **kwargs)
        seen.append(workload)
        return workload

    WORKLOADS.create = capture
    try:
        yield seen
    finally:
        del WORKLOADS.create


def execute(spec: Spec, config, source, *, in_process: bool = False):
    """Run the program once: ``api.run``, or ``run_sharded`` for the pool."""
    if spec.pool and not in_process:
        from repro.runtime.sharded import run_sharded

        # run_sharded draws fresh OS entropy when seed= is omitted, even
        # with config.seed set, so the seed is passed explicitly
        return run_sharded(config, source, seed=config.seed)
    from repro.api import run

    return run(config, graph=source)


@dataclass
class Rep:
    """Measurements and check outcome of one set-up plus one run."""

    setup_s: float
    run_s: float
    result: object
    problems: "list[str]"
    peak_rss_mb: float
    tracer: object = None
    #: host probe microseconds per unit during set-up and run (see host.py)
    probe_us: "dict | None" = None

    @property
    def ok(self) -> bool:
        return not self.problems


def run_rep(spec: Spec, inputs: dict, config, tracer=None, *, in_process=False,
            probe=None) -> Rep:
    """Build the input, run the program on it, and check the outputs.

    With a running ``host.Probe``, its counters are read at the edges of
    the set-up and the run, to tell how fast the host was in each.
    """
    from perfbench.host import probe_us
    from perfbench.layers import run_targets, setup_targets

    read = probe.read if probe else lambda: (0.0, 0.0)
    gc.collect()
    setup_ctx = tracer.patched(setup_targets()) if tracer else nullcontext()
    setup_from = read()
    start = perf_counter()
    with setup_ctx:
        source = build_source(spec, inputs)
    setup_s = perf_counter() - start
    setup_to = read()
    if tracer:
        tracer.top = 0.0  # coverage counts run-phase spans only
    with captured_workload() as seen:
        run_ctx = tracer.patched(run_targets()) if tracer else nullcontext()
        with run_ctx:
            run_from = read()
            start = perf_counter()
            result = execute(spec, config, source, in_process=in_process)
            run_s = perf_counter() - start
            run_to = read()
    rss = peak_rss_mb()
    problems = check(spec, inputs, source, seen[-1] if seen else None, result)
    rates = {
        # a set-up too short for a probe unit takes the whole rep's rate
        "setup": probe_us(setup_from, setup_to) or probe_us(setup_from, run_to),
        "run": probe_us(run_from, run_to) or probe_us(setup_from, run_to),
    }
    return Rep(setup_s, run_s, result, problems, rss, tracer, rates)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- checks ----------------------------------------------------------------


def step_rows(result) -> "list[list[int]]":
    return [
        [s.requested, s.launched, s.committed, s.aborted, s.workset_before, s.workset_after]
        for s in result.steps
    ]


def step_fingerprint(result) -> str:
    """Digest of the simulated step-stat sequence."""
    text = json.dumps(step_rows(result), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(spec: Spec, inputs: dict, source, workload, result) -> "list[str]":
    """Every way this run's outputs are wrong (empty when correct)."""
    problems = []
    if workload is None:
        return ["no workload was built"]
    steps = result.steps
    if not steps:
        return ["the run took no steps"]
    for s in steps:
        if s.launched != min(s.requested, s.workset_before):
            problems.append(f"step {s.step}: launched {s.launched} of {s.requested}")
        if s.committed + s.aborted != s.launched or s.committed < 1:
            problems.append(f"step {s.step}: {s.committed} + {s.aborted} != {s.launched}")
        if not 1 <= s.requested <= M_MAX:
            problems.append(f"step {s.step}: allocation {s.requested} outside clamps")
        if problems:
            return problems
    nodes = spec.nodes
    if spec.workload == "replay":
        if len(steps) != spec.max_steps:
            problems.append(f"{len(steps)} steps, expected {spec.max_steps}")
        if any(s.workset_after != nodes for s in steps):
            problems.append("the replay work-set changed size")
        if source.num_nodes != nodes or source.num_edges != inputs["edges"].shape[0]:
            problems.append("the replay run changed the graph")
    elif spec.workload == "consuming":
        if len(workload.workset) != 0:
            problems.append(f"{len(workload.workset)} tasks left in the work-set")
        if result.total_committed != nodes:
            problems.append(f"committed {result.total_committed} of {nodes} tasks")
        if source.num_nodes != 0:
            problems.append(f"{source.num_nodes} nodes left in the graph")
    elif spec.workload == "boruvka":
        from repro.apps.boruvka import kruskal_weight

        if len(workload.mst_edges) != nodes - 1:
            problems.append(f"{len(workload.mst_edges)} MST edges for {nodes} nodes")
        expected = kruskal_weight(source)
        if workload.total_weight != expected:
            problems.append(f"MST weight {workload.total_weight} != Kruskal {expected}")
    return problems


def rho_error(result) -> float:
    """|mean r_t over the last half of the steps − ρ|."""
    r = result.r_trace
    return float(abs(r[len(r) // 2:].mean() - RHO))
