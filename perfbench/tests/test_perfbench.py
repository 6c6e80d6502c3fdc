"""Tiny-scale tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402
from perfbench.layers import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SPECS,
    build_source,
    captured_workload,
    check,
    execute,
    make_config,
    make_inputs,
    run_rep,
    step_rows,
)

SCALE = 0.01
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    spec = SPECS[name].scaled(SCALE)
    return spec, make_inputs(spec, 0), make_config(spec, 0)


def cli(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(autouse=True)
def default_path(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_SELECT", raising=False)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_workload_runs_and_passes_its_check(name):
    spec, inputs, config = tiny(name)
    rep = run_rep(spec, inputs, config)
    assert rep.ok, rep.problems
    assert rep.setup_s > 0 and rep.run_s > 0


@pytest.mark.parametrize("name", sorted(SPECS))
def test_tracing_leaves_simulated_stats_unchanged(name):
    spec, inputs, config = tiny(name)
    plain = run_rep(spec, inputs, config)
    traced = run_rep(spec, inputs, config, Tracer())
    assert traced.ok, traced.problems
    assert step_rows(traced.result) == step_rows(plain.result)
    assert traced.tracer.spans["core.step"].calls == len(plain.result.steps)


def test_inputs_follow_the_seed():
    spec = SPECS["boruvka-20k"].scaled(SCALE)
    assert make_inputs(spec, 3)["fingerprint"] == make_inputs(spec, 3)["fingerprint"]
    assert make_inputs(spec, 3)["fingerprint"] != make_inputs(spec, 4)["fingerprint"]


def test_checks_catch_wrong_outputs():
    spec, inputs, config = tiny("boruvka-20k")
    source = build_source(spec, inputs)
    with captured_workload() as seen:
        result = execute(spec, config, source)
    assert check(spec, inputs, source, seen[-1], result) == []
    reweighted = dict(inputs, weights=inputs["weights"][::-1].copy())
    other = build_source(spec, reweighted)
    assert any("Kruskal" in p for p in check(spec, reweighted, other, seen[-1], result))
    assert check(spec, inputs, source, None, result) == ["no workload was built"]

    spec, inputs, config = tiny("replay-200k")
    source = build_source(spec, inputs)
    with captured_workload() as seen:
        result = execute(spec, config, source)
    result.steps.pop()
    assert check(spec, inputs, source, seen[-1], result) == ["59 steps, expected 60"]


def test_fingerprint_mismatch_fails_every_rep(monkeypatch):
    spec, inputs, config = tiny("drain-200k")
    reps = [bench._summary(run_rep(spec, inputs, config)) for _ in range(2)]
    assert bench.verify(spec, 0, inputs, config, reps) is not None
    assert not any(rep["problems"] for rep in reps)
    key = bench._fingerprint_key(spec, 0)
    monkeypatch.setattr(bench, "_load_fingerprints", lambda: {key: "0" * 16})
    bench.verify(spec, 0, inputs, config, reps)
    assert all(rep["problems"] for rep in reps)


def test_pool_is_checked_against_the_in_process_run(monkeypatch):
    spec, inputs, config = tiny("shard2-200k")
    reps = [bench.spawn_rep(spec, inputs, config)]
    monkeypatch.setattr(bench, "_load_fingerprints", lambda: {})
    bench.verify(spec, 0, inputs, config, reps)
    assert reps[0]["problems"] == []
    reps[0]["step_fingerprint"] = "0" * 16
    bench.verify(spec, 0, inputs, config, reps)
    assert reps[0]["problems"]


def test_timings_scale_with_the_host_probe():
    fast = {"setup_s": 1.0, "run_s": 2.0, "steps": 10, "committed": 100,
            "peak_rss_mb": 64.0, "probe_us": {"setup": 300.0, "run": 400.0}}
    slow = dict(fast, setup_s=2.0, run_s=4.0, probe_us={"setup": 600.0, "run": 800.0})
    for rep in (fast, slow):
        values, _ = bench.end_to_end([rep])
        assert values["setup_s"] == pytest.approx(bench.PROBE_REF_US / 300.0)
        assert values["run_s"] == pytest.approx(2.0 * bench.PROBE_REF_US / 400.0)
        assert values["commits_per_s"] == pytest.approx(100 / values["run_s"])
        assert values["peak_rss_mb"] == 64.0 and values["commits_per_step"] == 10.0
    # a phase the probe did not reach takes the run's median rate
    short = dict(fast, probe_us={"setup": None, "run": 400.0})
    assert bench.scaled([short], "setup") == [pytest.approx(bench.PROBE_REF_US / 400.0)]


def test_probe_counts_units_and_stops():
    from perfbench.host import Probe, probe_us

    with Probe() as probe:
        first = probe.read()
        deadline = time.monotonic() + 30.0
        while probe.read()[0] < first[0] + 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        last = probe.read()
    assert probe_us(first, last) > 0
    assert not probe._process.is_alive()
    assert probe_us(last, last) is None


def test_benchmark_json_names_and_units():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names)) and set(names) <= set(SPECS)
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    seen = [m["name"] for m in metrics]
    assert len(seen) == len(set(seen))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_metric_with_its_unit(trace, section):
    out = cli("--workload", "shard2-200k", "--seed", "0", "--seconds", "0.1",
              "--scale", str(SCALE), "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_matrix_mode_agrees_across_engine_paths():
    out = cli("--matrix", "--workload", "drain-200k", "--scale", str(SCALE))
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    (row,) = report["matrix"]
    assert row["identical_sim_stats"]
    assert len(row["run_s"]) == 4 and all(v > 0 for v in row["run_s"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = cli("--workload", "replay-200k", "--seed", "0", "--seconds", "1",
              "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
