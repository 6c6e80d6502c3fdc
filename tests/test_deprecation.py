"""One way in: the removed entry points stay removed, the kept ones never warn."""

import warnings

import pytest

import repro
from repro.control.fixed import FixedController
from repro.errors import ConfigError


class TestRemovedEntryPoints:
    def test_bare_experiment_name_rejected(self):
        with pytest.raises(ConfigError, match="RunConfig\\(experiment="):
            repro.run("fig3")


class TestBareExperimentNameShim:
    def test_run_config_does_not_warn(self, monkeypatch):
        monkeypatch.setitem(
            repro.registry("experiment")._entries,
            "test-depr-exp2",
            lambda seed, quick: "ok",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert repro.run(repro.RunConfig(experiment="test-depr-exp2")) == "ok"


class TestAppBuildEngineShim:
    """``make_engine`` is the one engine builder every app inherits."""

    def _app(self, seed=0):
        from repro.apps import build_app_input, workload_from_input

        return workload_from_input(
            "coloring", build_app_input("coloring", 40, seed=seed), seed=seed
        )

    def test_make_engine_never_warns(self):
        app = self._app()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            app.make_engine(FixedController(4), seed=1).run()

    def test_unified_signature_accepts_step_hook_and_engine(self):
        calls = []
        app = self._app()
        engine = app.make_engine(
            FixedController(4),
            seed=2,
            step_hook=lambda *a, **k: calls.append(1),
            engine="reference",
        )
        engine.run()
        assert calls  # the hook reached the underlying engine

    def test_ordered_app_signature_is_unified_too(self):
        from repro.apps import build_app_input, workload_from_input

        des = workload_from_input("des", build_app_input("des", 4, seed=1), seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            res = des.make_engine(FixedController(3), seed=2, engine="reference").run()
        assert res.total_committed > 0
