"""Tests for repro.obs.spans — hierarchical timing, sampling, merge."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    NULL_SPAN,
    SpanProfiler,
    activate_profiler,
    active_profiler,
    deactivate_profiler,
    profiling,
)
from repro.obs.spans import SNAPSHOT_SCHEMA


class TestSpanNesting:
    def test_paths_follow_the_open_stack(self):
        prof = SpanProfiler()
        with prof.span("step"):
            with prof.span("resolve"):
                with prof.span("kernel"):
                    pass
            with prof.span("commit"):
                pass
        assert sorted(prof.stats()) == [
            "step",
            "step/commit",
            "step/resolve",
            "step/resolve/kernel",
        ]
        assert prof.stats()["step"].count == 1

    def test_sibling_spans_aggregate_by_path(self):
        prof = SpanProfiler()
        for _ in range(3):
            with prof.span("step"):
                with prof.span("select"):
                    pass
        assert prof.stats()["step/select"].count == 3

    def test_parent_total_covers_children(self):
        prof = SpanProfiler()
        with prof.span("step"):
            with prof.span("a"):
                pass
            with prof.span("b"):
                pass
        step = prof.total_ns("step")
        assert step >= prof.total_ns("step/a") + prof.total_ns("step/b")

    def test_exception_still_records_and_pops(self):
        prof = SpanProfiler()
        with pytest.raises(RuntimeError):
            with prof.span("step"):
                with prof.span("resolve"):
                    raise RuntimeError("operator blew up")
        stats = prof.stats()
        assert stats["step"].count == 1
        assert stats["step/resolve"].count == 1
        # the open-path stack unwound: new spans root at the top again
        with prof.span("after"):
            pass
        assert "after" in prof.stats()

    def test_invalid_span_names_rejected(self):
        prof = SpanProfiler()
        with pytest.raises(ObservabilityError):
            prof.span("")
        with pytest.raises(ObservabilityError):
            prof.span("a/b")


class TestStepSampling:
    def test_sample_every_records_one_in_n(self):
        prof = SpanProfiler(sample_every=4)
        for step in range(12):
            with prof.step_span(step):
                with prof.span("resolve"):
                    pass
        assert prof.stats()["step"].count == 3  # steps 0, 4, 8
        assert prof.stats()["step/resolve"].count == 3

    def test_sampled_out_step_suppresses_nested_spans(self):
        prof = SpanProfiler(sample_every=2)
        with prof.step_span(1):  # 1 % 2 != 0: sampled out
            inner = prof.span("resolve")
            assert inner is NULL_SPAN
            with inner:
                pass
        assert len(prof) == 0

    def test_invalid_sample_every(self):
        with pytest.raises(ObservabilityError):
            SpanProfiler(sample_every=0)


class TestAddAndMerge:
    def test_add_credits_external_timing(self):
        prof = SpanProfiler()
        prof.add("sweep.attempt", 1_000, count=2)
        prof.add(("sweep.attempt",), 500)
        stat = prof.stats()["sweep.attempt"]
        assert stat.count == 3 and stat.total_ns == 1_500

    def test_add_rejects_bad_paths(self):
        prof = SpanProfiler()
        with pytest.raises(ObservabilityError):
            prof.add((), 1)
        with pytest.raises(ObservabilityError):
            prof.add(("a", ""), 1)

    def test_snapshot_round_trips_through_merge(self):
        src = SpanProfiler()
        with src.span("step"):
            with src.span("resolve"):
                pass
        dst = SpanProfiler()
        dst.merge(src.snapshot())
        assert dst.snapshot() == src.snapshot()

    def test_merge_reroots_under_prefix(self):
        worker = SpanProfiler()
        with worker.span("step"):
            pass
        sup = SpanProfiler()
        sup.merge(worker.snapshot(), prefix=("sweep.worker",))
        assert list(sup.stats()) == ["sweep.worker/step"]

    def test_merge_accumulates_counts_and_extremes(self):
        sup = SpanProfiler()
        sup.merge(
            {
                "schema": SNAPSHOT_SCHEMA,
                "spans": {"w": {"count": 2, "total_ns": 10, "min_ns": 4, "max_ns": 6}},
            }
        )
        sup.merge(
            {
                "schema": SNAPSHOT_SCHEMA,
                "spans": {"w": {"count": 1, "total_ns": 9, "min_ns": 9, "max_ns": 9}},
            }
        )
        stat = sup.stats()["w"]
        assert stat.count == 3 and stat.total_ns == 19
        assert stat.min_ns == 4 and stat.max_ns == 9

    def test_merge_rejects_bad_payloads(self):
        prof = SpanProfiler()
        with pytest.raises(ObservabilityError):
            prof.merge({"spans": {}})  # missing schema
        with pytest.raises(ObservabilityError):
            prof.merge({"schema": 999, "spans": {}})
        with pytest.raises(ObservabilityError):
            prof.merge({"schema": SNAPSHOT_SCHEMA, "spans": {"x": {"count": 1}}})


class TestRender:
    def test_render_empty(self):
        assert SpanProfiler().render() == "spans: (none recorded)"

    def test_render_tree_shows_counts_and_shares(self):
        prof = SpanProfiler()
        with prof.span("step"):
            with prof.span("resolve"):
                pass
        text = prof.render()
        assert "step: 1x" in text and "resolve: 1x" in text
        assert text.startswith("spans:")


class TestActivePlumbing:
    def test_profiling_activates_and_restores(self):
        assert active_profiler() is None
        with profiling(sample_every=3) as prof:
            assert active_profiler() is prof
            assert prof.sample_every == 3
        assert active_profiler() is None

    def test_nested_profiling_restores_outer(self):
        with profiling() as outer:
            with profiling() as inner:
                assert active_profiler() is inner
            assert active_profiler() is outer

    def test_activate_rejects_non_profiler(self):
        with pytest.raises(ObservabilityError):
            activate_profiler("nope")

    def test_manual_activate_deactivate(self):
        prof = SpanProfiler()
        try:
            assert activate_profiler(prof) is prof
            assert active_profiler() is prof
        finally:
            deactivate_profiler()
        assert active_profiler() is None


class TestEngineIntegration:
    def test_engine_steps_open_phase_spans(self):
        from repro.control.fixed import FixedController
        from repro.graph.generators import gnm_random
        from repro.runtime.workloads import ReplayGraphWorkload

        wl = ReplayGraphWorkload(gnm_random(60, 4, seed=1))
        with profiling() as prof:
            engine = wl.make_engine(FixedController(8), seed=2, engine="fast")
            for _ in range(5):
                engine.step()
        stats = prof.stats()
        for phase in (
            "step",
            "step/controller.decide",
            "step/select",
            "step/resolve",
            "step/commit",
            "step/controller.update",
        ):
            assert stats[phase].count == 5, phase
        # the fast path's kernel span nests under resolve
        assert any(p.startswith("step/resolve/kernel.") for p in stats)

    def test_disabled_engine_records_nothing(self):
        from repro.control.fixed import FixedController
        from repro.graph.generators import gnm_random
        from repro.runtime.workloads import ReplayGraphWorkload

        wl = ReplayGraphWorkload(gnm_random(60, 4, seed=1))
        engine = wl.make_engine(FixedController(8), seed=2)
        assert engine.profiler is None
        engine.step()  # must not raise without any profiler
