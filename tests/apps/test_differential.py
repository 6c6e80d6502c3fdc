"""Differential suite: every app runs identically on every engine path.

``RunConfig.engine`` (``"reference"`` per-task walk or ``"fast"``
vectorised kernels) and ``RunConfig.select`` (``"workset"`` reference
sampler or ``"incremental"`` active set) are pure performance knobs.
For each application in the catalog, all four combinations must produce
identical step stats and **byte-identical** observability traces, not
merely equal summary statistics.
"""

import warnings

import pytest

from repro import RunConfig
from repro.api import run
from repro.apps.catalog import APP_WORKLOADS
from repro.obs import TraceRecorder

SEED = 23

#: small-but-nontrivial problem sizes so the full matrix stays fast
SCALES = {
    "boruvka": 60,
    "clustering": 50,
    "coloring": 60,
    "components": 60,
    "delaunay": 16,
    "des": 6,
    "maxflow": 30,
    "sp": 12,
}

PATHS = [
    (engine, select)
    for engine in ("reference", "fast")
    for select in ("workset", "incremental")
]


def _run(name, engine, select):
    cfg = RunConfig(
        workload=f"{name}:{SCALES[name]}", seed=SEED, engine=engine, select=select
    )
    rec = TraceRecorder()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = run(cfg, recorder=rec)
    return [s.as_dict() for s in result.steps], rec.to_jsonl()


def test_every_catalog_app_is_covered():
    assert set(SCALES) == set(APP_WORKLOADS)


@pytest.mark.parametrize("name", sorted(SCALES))
def test_engine_and_select_paths_are_byte_identical(name):
    ref_steps, ref_trace = _run(name, *PATHS[0])
    assert ref_steps, "the differential only means something if steps ran"
    for engine, select in PATHS[1:]:
        steps, trace = _run(name, engine, select)
        assert steps == ref_steps, (engine, select)
        assert trace == ref_trace, (engine, select)
