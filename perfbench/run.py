"""Whole-run benchmark of the optimistic-runtime simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay-200k --seed 1 --seconds 40 --trace 0

builds each workload's input from ``--seed`` with NumPy, then repeats
"build the program's input object, run ``repro.api.run`` on it, check
the outputs" for about ``--seconds`` seconds.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (see ``perfbench/README.md``).

Two more modes do not measure against the clock:

* ``--matrix`` runs every workload once per engine × select combination,
  requires identical simulated step stats across the four, and reports
  ``run_s`` per combination;
* ``--record-fingerprints`` runs every workload once per ``--seeds``
  entry and stores the step-stat fingerprints in
  ``perfbench/fingerprints.json``, which later runs are checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
COMBOS = [(e, s) for e in ("reference", "fast") for s in ("workset", "incremental")]

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "commits_per_s": "commits/s",
    "peak_rss_mb": "MB",
    "sim_steps": "steps",
    "commits_per_step": "commits/step",
}

#: per-layer metrics read off the run result, the trace and the host
#: probe: name -> unit
DERIVED_METRICS = {
    "tasks.launched": "tasks",
    "tasks.committed": "tasks",
    "tasks.aborted": "tasks",
    "tasks.commit_ratio": "ratio",
    "rho_error": "ratio",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "host.probe_us": "us",
}

#: a run must end within 180 s; reps are not started to end after this
REP_DEADLINE = 165.0

#: the host probe's typical CPU time per unit, in microseconds, on the
#: 2-CPU Xeon host the benchmark was built on; end-to-end timings are
#: reported in seconds at that host speed (see README.md, "Host-speed
#: normalisation")
PROBE_REF_US = 650.0


def _import_program():
    """Put the checkout's ``src`` first on the path and import the program."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import repro  # noqa: F401  (fails outside a checkout: no result printed)


def _median(values):
    return float(statistics.median(values))


def _load_fingerprints() -> dict:
    if FINGERPRINTS.exists():
        return json.loads(FINGERPRINTS.read_text())
    return {}


def _fingerprint_key(spec, seed: int) -> str:
    return f"{spec.name}@{spec.nodes}:{seed}"


def _source_revision() -> dict:
    """Git revision when the checkout is a repository, and a digest of src/."""
    revision = {"git": None}
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            )
            revision["git"] = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    revision["src_sha256"] = digest.hexdigest()[:16]
    return revision


def _provenance(spec, seed, inputs, config) -> dict:
    import numpy as np

    from repro.registry import select_backend_for
    from repro.runtime.core import resolve_engine_mode

    return {
        "workload": spec.name,
        "nodes": spec.nodes,
        "seed": seed,
        "input_fingerprint": inputs["fingerprint"],
        "engine": resolve_engine_mode(config.engine),
        "select": type(select_backend_for(config)).__name__,
        "order": config.order,
        "pool": spec.pool,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_source_revision(),
    }


def _summary(rep) -> dict:
    """What one rep reports back to the parent."""
    from perfbench.layers import span_metrics
    from perfbench.workloads import rho_error, step_fingerprint

    result = rep.result
    summary = {
        "setup_s": rep.setup_s,
        "run_s": rep.run_s,
        "peak_rss_mb": rep.peak_rss_mb,
        "probe_us": rep.probe_us,
        "problems": rep.problems,
        "step_fingerprint": step_fingerprint(result),
        "steps": len(result.steps),
        "launched": result.total_launched,
        "committed": result.total_committed,
        "aborted": result.total_aborted,
        "rho_error": rho_error(result),
    }
    if rep.tracer is not None:
        summary["spans"] = span_metrics(rep.tracer)
        summary["top_s"] = rep.tracer.top
    return summary


def _rep_child(conn, spec, inputs, config, traced, in_process, probe) -> None:
    from perfbench.layers import Tracer
    from perfbench.workloads import run_rep

    rep = run_rep(spec, inputs, config, Tracer() if traced else None,
                  in_process=in_process, probe=probe)
    conn.send(_summary(rep))


def warm_up(spec) -> None:
    """One traced rep at a tiny scale, in this process, before any fork.

    Lazy imports, registry population and the wrappers' own imports then
    happen here once, not inside the timed region of the first rep or of
    traced reps only.
    """
    from perfbench.layers import Tracer
    from perfbench.workloads import make_config, make_inputs, run_rep

    tiny = spec.scaled(0.0)
    run_rep(tiny, make_inputs(tiny, 0), make_config(tiny, 0), Tracer())


def _forked(target, *args, timeout=170.0):
    """``target(conn, *args)`` in a forked child; what it sent, or ``None``.

    Every child starts from this process's state: modules imported,
    inputs generated, nothing else allocated, as in a user's fresh run,
    so no rep inherits the heap another rep left behind.  This process
    starts no threads of its own, and the child exits without interpreter
    teardown.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=target, args=(send, *args))
    child.start()
    send.close()
    value = None
    try:
        if recv.poll(max(timeout, 1.0)):
            value = recv.recv()
        else:
            print(f"{target.__name__} timed out", file=sys.stderr)
    except EOFError:
        pass  # the child died; its traceback is on stderr
    finally:
        recv.close()
        child.join(10.0)
        if child.is_alive():
            child.kill()
            child.join()
    return value


def spawn_rep(spec, inputs, config, *, traced=False, in_process=False, probe=None,
              timeout=170.0):
    """One rep in a forked child: its summary, or ``None`` if it failed."""
    return _forked(_rep_child, spec, inputs, config, traced, in_process, probe,
                   timeout=timeout)


def measure(spec, inputs, config, seconds: float, trace: bool, probe):
    """Reps for about *seconds*; traced and untraced reps alternate."""
    reps = []
    minimum = 2 if trace else 1
    start = perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        remaining = REP_DEADLINE - (perf_counter() - start)
        rep = spawn_rep(spec, inputs, config, traced=traced, probe=probe,
                        timeout=remaining)
        if rep is not None:
            rep["traced"] = traced
        reps.append(rep)
        elapsed = perf_counter() - start
        if len(reps) >= minimum and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def verify(spec, seed, inputs, config, reps) -> "str | None":
    """Cross-rep checks; returns the shared step fingerprint (or None).

    Every rep of one seed must simulate the same steps, and those must
    match the fingerprint recorded for the seed.  The pool workload must
    also match an in-process ``api.run`` of the same config: the recorded
    fingerprint is that run's, and an unrecorded seed runs it here.
    """
    done = [rep for rep in reps if rep is not None]
    prints = {rep["step_fingerprint"] for rep in done}
    if len(prints) != 1:
        for rep in done:
            rep["problems"].append(f"step stats differ between reps: {sorted(prints)}")
        return None
    fingerprint = prints.pop()
    expected = _load_fingerprints().get(_fingerprint_key(spec, seed))
    if expected is None and spec.pool:
        reference = spawn_rep(spec, inputs, config, in_process=True)
        expected = "in-process run failed" if reference is None else reference[
            "step_fingerprint"]
    if expected is not None and expected != fingerprint:
        for rep in done:
            rep["problems"].append(
                f"step fingerprint {fingerprint} != expected {expected}"
            )
    return fingerprint


def median_probe_us(reps) -> "float | None":
    """Median host-probe time per unit over the runs of *reps*."""
    rates = [r["probe_us"]["run"] for r in reps if r["probe_us"]["run"]]
    return _median(rates) if rates else None


def scaled(reps, phase: str) -> "list[float]":
    """Each rep's ``<phase>_s`` in seconds at the reference host speed.

    A rep's time is scaled by how fast the host probe ran during that
    phase of that rep.  A phase with no probe reading (a tiny run) takes
    the run's median, and a run with none is left unscaled.
    """
    fallback = median_probe_us(reps) or PROBE_REF_US
    return [
        r[f"{phase}_s"] * PROBE_REF_US / (r["probe_us"][phase] or fallback)
        for r in reps
    ]


def end_to_end(reps) -> "tuple[dict, dict]":
    steps = reps[0]["steps"]
    committed = reps[0]["committed"]
    run_s = scaled(reps, "run")
    values = {
        "setup_s": _median(scaled(reps, "setup")),
        "run_s": _median(run_s),
        "commits_per_s": _median([committed / t for t in run_s]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "sim_steps": float(steps),
        "commits_per_step": committed / steps,
    }
    return values, END_TO_END


def per_layer(reps) -> "tuple[dict, dict]":
    from perfbench.layers import SPAN_METRICS

    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    probe = median_probe_us(reps)
    values = {
        metric: _median([r["spans"][metric] for r in traced])
        for metric in SPAN_METRICS
    }
    rep = traced[0]
    values.update({
        "tasks.launched": float(rep["launched"]),
        "tasks.committed": float(rep["committed"]),
        "tasks.aborted": float(rep["aborted"]),
        "tasks.commit_ratio": rep["committed"] / rep["launched"],
        "rho_error": rep["rho_error"],
        "trace.overhead": _median(scaled(traced, "run"))
        / _median(scaled(plain, "run")) - 1.0,
        "trace.coverage": _median([r["top_s"] / r["run_s"] for r in traced]),
        "host.probe_us": probe or 0.0,  # 0: runs too short for a probe unit
    })
    units = {m: unit for m, (_s, _f, unit) in SPAN_METRICS.items()}
    units.update(DERIVED_METRICS)
    return values, units


def run_benchmark(args) -> int:
    from perfbench.host import Probe, pin_to_one_cpu
    from perfbench.workloads import make_config, make_inputs

    spec = _spec(args.workload, args.scale)
    inputs = make_inputs(spec, args.seed)
    config = make_config(spec, args.seed)
    record = _provenance(spec, args.seed, inputs, config)
    warm_up(spec)
    if not spec.pool:  # the pool's shard workers need a CPU each
        record["pinned_cpu"] = pin_to_one_cpu()
    with Probe() as probe:
        reps = measure(spec, inputs, config, args.seconds, bool(args.trace), probe)
    record["step_fingerprint"] = verify(spec, args.seed, inputs, config, reps)
    record["reps"] = reps
    done = [rep for rep in reps if rep is not None]
    print(json.dumps({"record": record}, sort_keys=True))
    failed = sum(1 for rep in reps if rep is None or rep["problems"])
    kinds = {rep["traced"] for rep in done}
    if not done or (args.trace and kinds != {True, False}):
        print("no complete run to report", file=sys.stderr)
        return 1
    values, units = per_layer(done) if args.trace else end_to_end(done)
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name:24s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_matrix(args) -> int:
    """Each workload once per engine × select; simulated stats must agree."""
    from perfbench.workloads import SPECS, make_config, make_inputs

    rows = []
    agree = True
    for name in [args.workload] if args.workload else list(SPECS):
        spec = _spec(name, args.scale)
        inputs = make_inputs(spec, args.seed)
        warm_up(spec)
        row = {"workload": name, "nodes": spec.nodes, "seed": args.seed, "run_s": {}}
        prints = set()
        for engine, select in COMBOS:
            key = f"{engine}/{select}"
            config = make_config(spec, args.seed, engine=engine, select=select)
            rep = spawn_rep(spec, inputs, config, timeout=600.0)
            if rep is None or rep["problems"]:
                row["run_s"][key] = None
                prints.add(None)
                print(f"{name} {key}: failed", file=sys.stderr)
                continue
            row["run_s"][key] = rep["run_s"]
            prints.add(rep["step_fingerprint"])
            print(f"{name:14s} {key:22s} run_s {rep['run_s']:8.3f}", flush=True)
        row["identical_sim_stats"] = len(prints) == 1 and None not in prints
        agree = agree and row["identical_sim_stats"]
        rows.append(row)
    report = {"matrix": rows, "provenance": {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        **_source_revision()}}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    return 0 if agree else 1


def run_record(args) -> int:
    """Store step fingerprints of the default path for ``--seeds``."""
    from perfbench.workloads import SPECS, make_config, make_inputs

    table = _load_fingerprints()
    for name in [args.workload] if args.workload else list(SPECS):
        spec = _spec(name, args.scale)
        warm_up(spec)
        for seed in args.seeds:
            inputs = make_inputs(spec, seed)
            config = make_config(spec, seed)
            # the pool workload is recorded from its in-process specification
            rep = spawn_rep(spec, inputs, config, in_process=True, timeout=600.0)
            if rep is None or rep["problems"]:
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                return 1
            key = _fingerprint_key(spec, seed)
            table[key] = rep["step_fingerprint"]
            print(f"{key} {table[key]}", flush=True)
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def _spec(name, scale):
    from perfbench.workloads import SPECS

    if name not in SPECS:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(SPECS)}")
    return SPECS[name].scaled(scale)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (all for --matrix)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's node count (tests use 0.01)")
    parser.add_argument("--matrix", action="store_true")
    parser.add_argument("--out", help="--matrix: also write the report here")
    parser.add_argument("--record-fingerprints", action="store_true")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(11)))
    args = parser.parse_args(argv)
    if not (args.matrix or args.record_fingerprints) and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # measure the RunConfig defaults, not whatever the shell selected
    os.environ.pop("REPRO_ENGINE", None)
    os.environ.pop("REPRO_SELECT", None)
    _import_program()
    if args.matrix:
        return run_matrix(args)
    if args.record_fingerprints:
        return run_record(args)
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
