#!/usr/bin/env python
"""Delaunay mesh refinement under adaptive processor allocation.

The paper's running example (§2): bad (skinny) triangles are fixed by
inserting circumcenters; concurrent insertions conflict when their
cavities overlap.  This example refines a random mesh twice — once with
the adaptive hybrid controller, once with a large fixed allocation — and
compares makespan, wasted speculative work and final mesh quality.

Run:  python examples/mesh_refinement.py [seed]
"""

import sys

from repro.apps.delaunay import RefinementWorkload, mesh_quality, random_input_mesh
from repro.control import FixedController, HybridController
from repro.utils import format_series, format_table

SEED = int(sys.argv[1]) if len(sys.argv) > 1 else 0


def refine(controller, label, svg_path=None):
    mesh = random_input_mesh(400, seed=SEED)
    workload = RefinementWorkload(mesh, min_angle=25.0, min_edge=0.02)
    engine = workload.make_engine(controller, seed=SEED + 1)
    result = engine.run(max_steps=10000)
    if svg_path:
        mesh.to_svg(svg_path)
        print(f"  wrote {svg_path}")
    quality = mesh_quality(mesh)
    assert workload.check_refined(), "refinement did not drain"
    assert mesh.check_consistency(), "mesh corrupted"
    return {
        "label": label,
        "steps": len(result),
        "committed": result.total_committed,
        "wasted": result.wasted_fraction,
        "insertions": workload.insertions,
        "triangles": quality["triangles"],
        "mean_min_angle": quality["mean_min_angle"],
        "result": result,
    }


def main() -> None:
    input_mesh = random_input_mesh(400, seed=SEED)
    before = mesh_quality(input_mesh)
    input_mesh.to_svg("mesh_before.svg")
    print(
        f"input mesh: {before['triangles']:.0f} triangles, "
        f"mean min-angle {before['mean_min_angle']:.1f}° (wrote mesh_before.svg)\n"
    )
    runs = [
        refine(HybridController(rho=0.25), "hybrid (rho=25%)", svg_path="mesh_after.svg"),
        refine(FixedController(64), "fixed m=64"),
        refine(FixedController(4), "fixed m=4"),
    ]
    print(
        format_table(
            ["controller", "steps", "committed", "wasted", "insertions", "mean min-angle"],
            [
                (
                    r["label"],
                    r["steps"],
                    r["committed"],
                    round(r["wasted"], 3),
                    r["insertions"],
                    round(r["mean_min_angle"], 2),
                )
                for r in runs
            ],
            title="refinement under three allocation policies",
        )
    )
    print()
    hybrid = runs[0]["result"]
    print(
        format_series(
            "hybrid allocation m_t (tracks the shrinking work-set)",
            list(range(len(hybrid))),
            hybrid.m_trace.tolist(),
        )
    )


if __name__ == "__main__":
    main()
