#!/usr/bin/env python
"""Borůvka's MST as an optimistically parallelised work-set algorithm.

Components grab their lightest outgoing edge and contract; concurrent
contractions conflict when they touch the same component.  Parallelism is
huge at the start (every node is a component) and collapses to nothing as
the forest merges — the controller rides that decay down.  The result is
verified against an independent Kruskal implementation.

Run:  python examples/mst_boruvka.py [seed]
"""

import sys

from repro.apps.boruvka import BoruvkaMST, kruskal_weight, random_weighted_graph
from repro.control import HybridController
from repro.utils import format_series, format_table

SEED = int(sys.argv[1]) if len(sys.argv) > 1 else 0


def main() -> None:
    graph = random_weighted_graph(2000, 8, seed=SEED)
    print(f"weighted graph: {graph.num_nodes} nodes, {graph.num_edges} edges\n")

    app = BoruvkaMST(graph)
    engine = app.make_engine(HybridController(rho=0.25, m_max=512), seed=SEED + 1)
    result = engine.run(max_steps=20000)

    reference = kruskal_weight(graph)
    assert abs(app.total_weight - reference) < 1e-9, "MST weight mismatch!"

    print(
        format_table(
            ["metric", "value"],
            [
                ("MST edges", len(app.mst_edges)),
                ("Boruvka weight", round(app.total_weight, 6)),
                ("Kruskal weight (oracle)", round(reference, 6)),
                ("components left", app.num_components()),
                ("temporal steps", len(result)),
                ("speculative waste", round(result.wasted_fraction, 4)),
                ("stale task commits", app.stale_commits),
            ],
            title="Boruvka under the hybrid controller",
        )
    )
    print()
    print(
        format_series(
            "allocation m_t (rides Boruvka's decaying parallelism)",
            list(range(len(result))),
            result.m_trace.tolist(),
        )
    )
    print()
    print(
        format_series(
            "work-set size (components with outgoing edges)",
            list(range(len(result))),
            result.workset_trace.tolist(),
        )
    )


if __name__ == "__main__":
    main()
