"""Process-backed sharded execution: one phase-1 resolver per shard.

:func:`run_sharded` runs one engine exactly like
``api.run(config, graph=..., order="sharded:k")`` — same work-set, same
controller, same RNG trajectory, same trace — except that phase-1 (the
per-shard local greedy walk) executes in ``k`` **persistent worker
processes**, one per shard, supervised with the crash/timeout machinery
of :mod:`repro.runtime.supervise`.  The in-process
:class:`~repro.runtime.policies.ShardedCommitOrder` is the byte-for-byte
specification this runtime is held to: the equivalence suite pins the
two traces to each other, with and without injected faults.

Design
======

* The **supervisor owns all authoritative state** — graph, work-set,
  controller, RNG, journal.  Workers are pure functions: each holds its
  shard's intra-shard adjacency (shipped once at spawn) and answers
  "which of these batch positions commit locally?" per round via
  :func:`repro.graph.partition.local_greedy_positions`.
* **No mutation sync.**  Worker adjacency is never updated: a committed
  node of a consuming workload leaves the work-set forever, so its stale
  edges can never fire again — the same staleness argument the
  incremental CSR view (:class:`~repro.graph.ccgraph.ConflictDeltaView`)
  rests on.  Workloads that *add* edges (``regenerating``) are rejected
  up front; use the in-process policy for those.
* **Fault tolerance.**  Worker processes fire the run's
  :class:`~repro.testing.FaultPlan` with the shard identity
  ``"shard:<i>"`` and their incarnation index as the attempt, so
  ``kill:shard:1:0`` kills shard 1's first incarnation mid-run.  A
  crashed, hung (timeout) or erroring worker is terminated, respawned
  with attempt+1, and the round is re-dispatched — the masks are pure
  functions of the round, so recovery is invisible in the trace.
* **Crash-safe resume.**  With ``journal=``, every completed round's
  phase-1/phase-2 masks are fsynced before the engine proceeds;
  ``resume=True`` replays journaled rounds without touching workers
  (batch draws are deterministic), so an interrupted run — even one
  whose journal has a torn final line — finishes byte-identical to an
  uninterrupted one.
* **Distributed observability** (all opt-in, see
  :mod:`repro.obs.distributed`).  With ``trace_dir=`` each worker ships
  one ``shard_round`` event per round over its existing reply pipe,
  buffered by a supervisor-side :class:`~repro.obs.TelemetryBus` and
  written as per-shard ``shard-<i>.jsonl`` streams that
  :func:`~repro.obs.merge_traces` interleaves with the supervisor trace
  by halo-exchange sequence number; an active span profiler receives
  worker span deltas under ``shard.worker/`` plus supervisor-side
  ``shard.round`` wall-clock (the sweep supervisor's merge idiom, so
  ``--profile`` works); an active/passed metrics registry gains
  per-shard labelled ``shard.*`` series and halo-wait/skew statistics;
  and ``flight_dir=`` arms the crash flight recorder: workers journal
  fsynced round begin/end records, and a dying worker's spill tail is
  salvaged into ``<flight_dir>/<run_id>/shard-<i>.jsonl`` before the
  respawn.  The default path (none of these configured) is byte- and
  message-identical to the uninstrumented runtime.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError, RuntimeEngineError
from repro.graph.partition import local_greedy_positions
from repro.runtime.supervise import PersistentWorker, mp_context

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import RunConfig
    from repro.graph.ccgraph import CCGraph

__all__ = ["ShardPool", "run_sharded", "DEFAULT_SHARD_JOURNAL"]

#: default round-journal filename (sibling idiom to the sweep journal)
DEFAULT_SHARD_JOURNAL = "shard-journal.jsonl"

#: workloads the process runtime supports: their morphs never *add*
#: edges, so spawn-time worker adjacency stays sound (see module doc)
_SUPPORTED_WORKLOADS = frozenset({"replay", "consuming"})


def _flight_write(file, record: dict, fsync: bool = False) -> None:
    """Append one spill record; fsync when it must survive a SIGKILL."""
    file.write(json.dumps(record, sort_keys=True) + "\n")
    file.flush()
    if fsync:
        os.fsync(file.fileno())


def _shard_worker_main(conns, payload: dict) -> None:
    """Worker entry point: serve phase-1 rounds until EOF or close.

    Fires the injected fault plan (if any) once, before the first round
    this incarnation serves, with ``("shard:<i>", attempt)`` identity —
    the shard-process extension of the sweep harness's fault matching.

    Three opt-in payload extensions (see the module doc) layer the
    distributed-observability duties on top: ``telem_events`` /
    ``telem_spans`` piggyback a per-round telemetry delta on the reply,
    and ``flight`` journals fsynced round begin/end records to the
    flight-recorder spill — the ``round_begin`` lands on disk *before*
    the fault plan can fire, so the spill always names the round a
    killed worker died in.  With none of them set, the message protocol
    is byte-identical to the uninstrumented worker.
    """
    recv_conn, send_conn = conns
    adjacency: "dict[int, set[int]]" = {}
    for u, v in payload["edges"]:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    plan = payload.get("faults")
    fired = plan is None
    shard = payload["shard"]
    attempt = payload["attempt"]
    telem_events = bool(payload.get("telem_events"))
    telem_spans = bool(payload.get("telem_spans"))
    flight = payload.get("flight")
    if telem_events or telem_spans or flight is not None:
        # one up-call import per incarnation; the default path never
        # touches repro.obs at all
        from repro.obs import distributed as _dist
        from repro.obs.spans import SpanProfiler
    flight_file = None
    if flight is not None:
        flight_file = open(flight["path"], "a", encoding="utf-8")
        _flight_write(
            flight_file,
            _dist.flight_incarnation(flight.get("run_id"), shard, attempt),
            fsync=True,
        )
    try:
        while True:
            try:
                message = recv_conn.recv()
            except (EOFError, OSError):
                break
            if message is None:  # close sentinel
                break
            try:
                sub = message["sub"]
                step = message.get("step")
                seq = message.get("seq")
                if flight_file is not None:
                    _flight_write(
                        flight_file,
                        _dist.flight_round_begin(step, seq, len(sub), attempt),
                        fsync=True,
                    )
                if not fired:
                    fired = True
                    from repro.testing.faults import FaultPlan

                    FaultPlan.from_dict(plan).fire(f"shard:{shard}", attempt)
                profiler = SpanProfiler() if telem_spans else None
                if profiler is not None:
                    with profiler.span("shard.round"):
                        positions = local_greedy_positions(adjacency, sub)
                else:
                    positions = local_greedy_positions(adjacency, sub)
                reply: dict = {"ok": True, "positions": positions}
                spans = None if profiler is None else profiler.snapshot()
                if telem_events or spans is not None:
                    telem: dict = {}
                    if telem_events:
                        telem["events"] = [
                            {
                                "step": 0 if step is None else int(step),
                                "kind": "shard_round",
                                "data": {
                                    "src": f"shard:{shard}",
                                    "seq": seq,
                                    "launched": len(sub),
                                    "committed": len(positions),
                                    "attempt": attempt,
                                },
                            }
                        ]
                    if spans is not None:
                        telem["spans"] = spans
                    reply["telem"] = telem
                send_conn.send(reply)
                if flight_file is not None:
                    _flight_write(
                        flight_file,
                        _dist.flight_round_end(
                            step, len(sub), len(positions), spans
                        ),
                    )
            except BaseException as exc:  # noqa: BLE001 - workers never re-raise
                try:
                    send_conn.send(
                        {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                    )
                except Exception:
                    pass
                break
    finally:
        for conn in (recv_conn, send_conn):
            try:
                conn.close()
            except Exception:
                pass
        if flight_file is not None:
            try:
                flight_file.close()
            except Exception:
                pass


class _RoundJournal:
    """Append-only fsynced JSONL journal of completed rounds.

    One ``{"step", "final", "local"}`` record per round (positions of
    the surviving and phase-1 commits within that round's batch), after
    a ``{"kind": "shard_journal", "shards": k}`` header.  Loading
    tolerates a torn final line — that round simply recomputes.
    """

    def __init__(self, path, shards: int, resume: bool):
        self.path = Path(path)
        self.records: "dict[int, dict]" = {}
        if resume and self.path.exists():
            for line in self.path.read_text().splitlines():
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break  # torn tail: recompute from here
                if record.get("kind") == "shard_journal":
                    if record.get("shards") != shards:
                        raise RuntimeEngineError(
                            f"journal {self.path} was written for "
                            f"shards={record.get('shards')}, not {shards}"
                        )
                    continue
                self.records[int(record["step"])] = record
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")
        if self._file.tell() == 0:
            self._write({"kind": "shard_journal", "shards": shards})

    def _write(self, record: dict) -> None:
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())

    def lookup(self, step: int) -> "dict | None":
        return self.records.get(step)

    def record(self, step: int, final: np.ndarray, local: np.ndarray) -> None:
        self._write(
            {
                "step": int(step),
                "final": [int(i) for i in np.flatnonzero(final)],
                "local": [int(i) for i in np.flatnonzero(local)],
            }
        )

    def close(self) -> None:
        try:
            self._file.close()
        except Exception:  # pragma: no cover - double close
            pass


class ShardPool:
    """Supervised per-shard phase-1 workers plus the halo-exchange step.

    Plugs into :class:`~repro.runtime.policies.ShardedCommitOrder` via
    its ``pool=`` argument: the policy calls :meth:`resolve` once per
    multi-shard round and receives the same ``(final, local)`` masks its
    in-process path would compute.
    """

    def __init__(
        self,
        shards: int,
        *,
        timeout: "float | None" = None,
        faults=None,
        journal=None,
        resume: bool = False,
        max_respawns: int = 8,
    ):
        if shards < 2:
            raise RuntimeEngineError(
                f"a shard pool needs >= 2 shards, got {shards}"
            )
        self.shards = shards
        self.timeout = timeout
        self.faults = faults.to_dict() if hasattr(faults, "to_dict") else faults
        self.max_respawns = max_respawns
        self.respawns = 0
        self._attempts = [0] * shards
        self._ctx = mp_context()
        self._workers: "dict[int, PersistentWorker]" = {}
        self._edges: "dict[int, list] | None" = None
        self._journal = (
            _RoundJournal(journal, shards, resume) if journal is not None else None
        )
        self._bus = None
        self._flight = None

    # -- distributed observability (bind before the first round) ---------
    def _check_unspawned(self, what: str) -> None:
        if self._workers:
            raise RuntimeEngineError(
                f"cannot bind {what} after workers have spawned — bind "
                "before the first resolved round"
            )

    def bind_telemetry(self, bus) -> None:
        """Attach a :class:`~repro.obs.TelemetryBus` (duck-typed).

        Worker payloads carry the bus's event/span appetite, so binding
        is only legal before the lazily spawned workers exist.
        """
        self._check_unspawned("a telemetry bus")
        self._bus = bus

    def bind_flight(self, flight) -> None:
        """Attach a :class:`~repro.obs.FlightRecorder` (duck-typed)."""
        self._check_unspawned("a flight recorder")
        self._flight = flight

    # -- worker lifecycle ------------------------------------------------
    def _ensure_edges(self, partition, graph) -> None:
        if self._edges is None:
            intra, _ = partition.edge_split(graph)
            self._edges = {
                s: pairs.tolist() for s, pairs in intra.items()
            }

    def _spawn(self, shard: int) -> PersistentWorker:
        payload = {
            "shard": shard,
            "attempt": self._attempts[shard],
            "edges": self._edges[shard],
            "faults": self.faults,
        }
        if self._bus is not None:
            payload["run_id"] = self._bus.run_id
            payload["telem_events"] = self._bus.wants_events
            payload["telem_spans"] = self._bus.wants_spans
        if self._flight is not None:
            payload["flight"] = self._flight.worker_payload(shard)
        worker = PersistentWorker(_shard_worker_main, payload, self._ctx)
        self._workers[shard] = worker
        return worker

    def _worker(self, shard: int) -> PersistentWorker:
        worker = self._workers.get(shard)
        return worker if worker is not None else self._spawn(shard)

    def _respawn(self, shard: int, why: str) -> PersistentWorker:
        self.respawns += 1
        if self.respawns > self.max_respawns:
            raise RuntimeEngineError(
                f"shard {shard} exhausted the respawn budget "
                f"({self.max_respawns}): {why}"
            )
        self._attempts[shard] += 1
        self._workers.pop(shard, None)
        return self._spawn(shard)

    # -- one round -------------------------------------------------------
    def resolve(self, step, batch, partition, graph, *, seq=None):
        """Two-phase masks for one round, worker-backed and journaled.

        *seq* is the round's halo-exchange sequence number when
        distributed tracing is on (threaded through the round message so
        workers stamp it on their telemetry); ``None`` otherwise.
        Journal-replayed rounds return before any worker or telemetry
        involvement — a resumed run re-derives masks, not observability.
        """
        m = len(batch)
        record = self._journal.lookup(step) if self._journal is not None else None
        if record is not None:
            final = np.zeros(m, dtype=bool)
            local = np.zeros(m, dtype=bool)
            final[np.asarray(record["final"], dtype=np.int64)] = True
            local[np.asarray(record["local"], dtype=np.int64)] = True
            return final, local
        self._ensure_edges(partition, graph)
        t_round = time.perf_counter()
        payloads = np.asarray(
            [task.payload for task in batch] or [], dtype=np.int64
        )
        shard_by_pos = partition.shard_of_array(payloads)
        subs: "dict[int, list[tuple[int, int]]]" = {}
        for pos in range(m):
            subs.setdefault(int(shard_by_pos[pos]), []).append(
                (pos, int(payloads[pos]))
            )
        local = np.zeros(m, dtype=bool)
        message = {"step": int(step), "seq": seq}
        pending = []
        for shard, sub in sorted(subs.items()):
            msg = {**message, "sub": sub}
            self._worker(shard).post(msg)
            pending.append((shard, msg))
        first_reply = last_reply = None
        for shard, msg in pending:
            local[self._collect(shard, msg)] = True
            now = time.perf_counter()
            if first_reply is None:
                first_reply = now
            last_reply = now
        final = self._halo_exchange(graph, partition, payloads, shard_by_pos, local)
        if self._journal is not None:
            self._journal.record(step, final, local)
        if self._bus is not None:
            launched = np.bincount(shard_by_pos, minlength=self.shards)
            committed = np.bincount(shard_by_pos[final], minlength=self.shards)
            self._bus.note_round(
                {
                    "launched": [int(x) for x in launched],
                    "committed": [int(x) for x in committed],
                    "halo_aborts": int(np.count_nonzero(local & ~final)),
                },
                # how long the first finished shard waited for the last
                halo_wait_seconds=(
                    last_reply - first_reply if first_reply is not None else None
                ),
                round_seconds=time.perf_counter() - t_round,
            )
        return final, local

    def _collect(self, shard: int, message: dict) -> "list[int]":
        """One shard's phase-1 reply, respawning and retrying on failure.

        Respawned workers get the *full* round message back (step and
        sequence number included), so a recovered round is
        indistinguishable from an undisturbed one on both channels.
        A failure first salvages the dead incarnation's flight spill
        (when a recorder is bound) — the attempt index recorded is the
        incarnation that died, not its replacement.
        """
        worker = self._workers[shard]
        while True:
            status, reply = worker.collect(self.timeout)
            if status == "ok" and reply.get("ok"):
                if self._bus is not None:
                    self._bus.ingest(shard, reply.get("telem"))
                return reply["positions"]
            if status == "ok":
                why = f"error: {reply.get('error', 'worker error')}"
                worker.close()  # erroring worker: its loop already exited
            else:
                why = f"{status}: {reply}"
            if self._flight is not None:
                self._flight.salvage(
                    shard, reason=why, attempt=self._attempts[shard]
                )
            worker = self._respawn(shard, why)
            if not worker.post(message):  # pragma: no cover - instant death
                continue

    @staticmethod
    def _halo_exchange(graph, partition, payloads, shard_by_pos, local):
        """Phase 2, supervisor-side: cut-edge greedy over local commits.

        Identical to the reference rule in
        :func:`repro.graph.partition.two_phase_commit_mask`: walk the
        locally committed tasks in batch order; survive iff no earlier
        *surviving* cross-shard neighbour committed.
        """
        final = np.zeros(len(payloads), dtype=bool)
        survivors: "dict[int, int]" = {}
        for pos in np.flatnonzero(local):
            node = int(payloads[pos])
            shard = int(shard_by_pos[pos])
            if all(
                survivors.get(b, shard) == shard for b in graph.neighbors(node)
            ):
                final[pos] = True
                survivors[node] = shard
        return final

    def close(self) -> None:
        for worker in self._workers.values():
            worker.post(None)  # polite close; terminate regardless
            worker.close()
        self._workers.clear()
        if self._journal is not None:
            self._journal.close()


def run_sharded(
    config: "RunConfig",
    graph: "CCGraph",
    *,
    seed=None,
    controller=None,
    recorder=None,
    metrics=None,
    faults=None,
    timeout: "float | None" = None,
    journal=None,
    resume: bool = False,
    run_id=None,
    trace_dir=None,
    flight_dir=None,
    monitor=None,
):
    """One sharded engine run with worker-process phase-1 resolution.

    Accepts the same ``RunConfig`` shape as
    ``api.run(config, graph=...)`` with ``order="sharded[:k]"`` and
    produces a byte-identical trace and result; ``shards=1`` (or a
    single-shard spec) runs in-process with no pool at all.  See the
    module docstring for the fault/journal semantics of ``faults=``,
    ``timeout=``, ``journal=`` and ``resume=``.

    The distributed-observability layer is opt-in per channel:

    * ``trace_dir=`` turns on distributed tracing — the supervisor's
      ``order_decision``/``halo_exchange`` events gain ``run_id``/``seq``
      fields and each shard's ``shard_round`` stream is written to
      ``<trace_dir>/shard-<i>.jsonl`` when the run finishes (the
      supervisor trace itself stays in *recorder*, to be written by the
      caller — see :func:`repro.obs.write_trace`);
    * ``flight_dir=`` arms the crash flight recorder under
      ``<flight_dir>/<run_id>/``;
    * ``monitor=`` takes a :class:`repro.obs.ShardProgress` fed every
      round (the CLI's ``--live``);
    * an **active span profiler** (``--profile``) automatically receives
      worker span deltas under ``shard.worker/`` plus ``shard.round``
      wall-clock, and the metrics registry (*metrics* or the active one)
      gains per-shard ``shard.*`` series.

    *run_id* names the run across all of its streams; one is derived
    when needed (deterministically if you pass your own — see
    :func:`repro.obs.new_run_id`).  As in :func:`repro.api.run`, an
    explicit *seed* overrides ``config.seed``.  Returns the engine's run
    result.
    """
    # call-time up-reach into api/registry (sanctioned; see config.py)
    from repro.api import _controller_for, _order_engine
    from repro.errors import ReproError
    from repro.registry import WORKLOADS, parse_order_spec
    from repro.runtime.policies import ShardedCommitOrder

    seed = seed if seed is not None else config.seed
    name, kwargs = parse_order_spec(config.order or "sharded")
    if name != "sharded":
        raise ConfigError(
            f'run_sharded needs order="sharded[:k]", got {config.order!r}'
        )
    shards = kwargs.get("shards") or config.shards or 1
    if config.workload == "replay" and config.max_steps is None:
        raise ReproError("replay workloads never drain; pass max_steps")
    if shards > 1 and config.workload not in _SUPPORTED_WORKLOADS:
        raise ConfigError(
            f"the process-backed shard runtime supports workloads "
            f"{sorted(_SUPPORTED_WORKLOADS)}; {config.workload!r} morphs add "
            "edges that spawn-time worker adjacency cannot see — use the "
            'in-process order="sharded" policy instead'
        )
    workload = WORKLOADS.create(config.workload, graph, config)
    pool = (
        ShardPool(
            shards,
            timeout=timeout,
            faults=faults,
            journal=journal,
            resume=resume,
        )
        if shards > 1
        else None
    )
    order = ShardedCommitOrder(workload.policy, shards=shards, pool=pool)
    bus = None
    if pool is not None:
        # call-time up-reach into repro.obs (same layering note as above)
        from repro.obs.distributed import (
            FlightRecorder,
            TelemetryBus,
            TraceContext,
            new_run_id,
        )
        from repro.obs.metrics import active_metrics
        from repro.obs.spans import active_profiler

        registry = metrics if metrics is not None else active_metrics()
        profiler = active_profiler()
        if run_id is None and (trace_dir is not None or flight_dir is not None):
            run_id = new_run_id()
        if (
            trace_dir is not None
            or monitor is not None
            or registry is not None
            or profiler is not None
        ):
            bus = TelemetryBus(
                shards,
                run_id=run_id,
                trace_dir=trace_dir,
                metrics=registry,
                profiler=profiler,
                monitor=monitor,
            )
            pool.bind_telemetry(bus)
        if flight_dir is not None:
            pool.bind_flight(FlightRecorder(flight_dir, run_id, shards))
        if trace_dir is not None:
            order.trace_ctx = TraceContext(run_id)
    engine = _order_engine(
        config,
        order,
        workload.workset,
        workload.operator,
        _controller_for(config, controller),
        seed,
        recorder,
        metrics,
    )
    try:
        return engine.run(max_steps=config.max_steps)
    finally:
        if pool is not None:
            pool.close()
        if bus is not None:
            bus.close()
