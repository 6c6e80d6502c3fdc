"""Tests for repro.apps.delaunay.refinement."""

import pytest

from repro.apps.delaunay.geometry import min_angle_deg
from repro.apps.delaunay.refinement import (
    RefinementWorkload,
    mesh_quality,
    random_input_mesh,
)
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import ApplicationError


@pytest.fixture
def refined_run():
    mesh = random_input_mesh(120, seed=1)
    wl = RefinementWorkload(mesh, min_angle=25.0, min_edge=0.03)
    engine = wl.make_engine(HybridController(0.25), seed=2)
    result = engine.run(max_steps=4000)
    return mesh, wl, result


class TestSetup:
    def test_initial_workset_is_bad_triangles(self):
        mesh = random_input_mesh(60, seed=0)
        wl = RefinementWorkload(mesh, min_angle=25.0, min_edge=0.03)
        assert len(wl.workset) == sum(1 for t in mesh.triangle_ids() if wl.is_bad(t))

    def test_parameter_validation(self):
        mesh = random_input_mesh(10, seed=0)
        with pytest.raises(ApplicationError):
            RefinementWorkload(mesh, min_angle=0.0)
        with pytest.raises(ApplicationError):
            RefinementWorkload(mesh, min_angle=70.0)
        with pytest.raises(ApplicationError):
            RefinementWorkload(mesh, min_edge=0.0)

    def test_input_mesh_validation(self):
        with pytest.raises(ApplicationError):
            random_input_mesh(2)


class TestRefinementRun(object):
    def test_terminates_and_refines(self, refined_run):
        mesh, wl, result = refined_run
        assert len(wl.workset) == 0  # drained, not step-capped
        assert wl.check_refined()
        assert wl.remaining_bad() == 0

    def test_mesh_stays_consistent(self, refined_run):
        mesh, _, _ = refined_run
        assert mesh.check_consistency()

    def test_mesh_stays_delaunay(self):
        # smaller instance so the O(V·T) check is cheap
        mesh = random_input_mesh(40, seed=3)
        wl = RefinementWorkload(mesh, min_angle=22.0, min_edge=0.05)
        wl.make_engine(FixedController(4), seed=4).run(max_steps=2000)
        assert mesh.check_delaunay()

    def test_quality_improves(self, refined_run):
        mesh, wl, _ = refined_run
        fresh = random_input_mesh(120, seed=1)
        assert mesh_quality(mesh)["mean_min_angle"] > mesh_quality(fresh)["mean_min_angle"]

    def test_accounting(self, refined_run):
        _, wl, result = refined_run
        # every committed task either inserted, was stale, or gave up
        assert wl.insertions + wl.stale_commits + len(wl.given_up) == result.total_committed

    def test_domain_restriction_bounds_insertions(self, refined_run):
        mesh, wl, _ = refined_run
        xmin, ymin, xmax, ymax = wl.domain
        for i in range(mesh.num_vertices):
            if mesh.is_ghost_vertex(i):
                continue
            x, y = mesh.vertex(i)
            assert xmin - 1e-9 <= x <= xmax + 1e-9
            assert ymin - 1e-9 <= y <= ymax + 1e-9

    def test_remaining_bad_only_guarded(self, refined_run):
        """Any leftover skinny triangle must be sub-floor, given-up or off-domain."""
        mesh, wl, _ = refined_run
        for tid in mesh.triangle_ids():
            if min_angle_deg(*mesh.triangle_points(tid)) < wl.min_angle:
                guarded = (
                    mesh.shortest_edge_of(tid) < wl.min_edge
                    or tid in wl.given_up
                    or not all(wl._in_domain(p) for p in mesh.triangle_points(tid))
                )
                assert guarded


class TestQualityMetric:
    def test_mesh_quality_fields(self):
        q = mesh_quality(random_input_mesh(30, seed=5))
        assert q["triangles"] > 0
        assert 0 <= q["min_angle"] <= q["mean_min_angle"] <= 60.0

    def test_empty_mesh_quality(self):
        from repro.apps.delaunay.triangulation import Triangulation

        q = mesh_quality(Triangulation((0, 0, 1, 1)))
        assert q["triangles"] == 0.0
