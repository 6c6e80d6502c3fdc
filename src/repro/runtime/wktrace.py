"""Record/replay substrate for workload traces.

A *workload trace* captures what an irregular application actually did
during one engine run — the tasks it drew, the neighbourhoods they
declared, the commit sequence, the new tasks each commit created, and
the graph morphs it performed — into a versioned, canonical JSONL file.
The trace is then a **workload in its own right**:
:class:`TraceReplayWorkload` re-executes the recorded morph sequence
deterministically through any engine configuration, which is what makes
cross-cutting equivalence claims testable — the same recorded Boruvka
run replayed under ``select="workset"`` vs ``select="incremental"``, or
``shards=1`` vs ``shards=2``, must commit the same work.

Three layers:

:class:`WorkloadTrace`
    The in-memory trace and its JSONL serialisation (``VERSION`` = 1).
    Four record kinds, in file order: one ``wkheader`` (version, label,
    ordering requirement), one ``wktask`` per task ever seen (payload
    provenance, priority, parent, last-observed neighbourhood items),
    one ``wkcommit`` per commit **in commit order** (items, children,
    morph ops), and one ``wkend`` trailer whose ``fingerprint`` — a
    SHA-256 over the canonical commit table — guards against truncation
    and tampering.

:class:`WorkloadCapture`
    A transparent workload wrapper (same ``workset`` / ``operator`` /
    ``policy`` / ``make_engine`` protocol) that records the run it is
    part of.  Tasks are keyed by their process-unique ``uid`` and
    assigned dense trace ids in first-observation order; a
    :meth:`~repro.graph.ccgraph.CCGraph.set_morph_hook` observer
    attributes graph morphs to the committing task.  Workloads whose
    conflicts come from an explicit CC graph
    (:class:`~repro.runtime.conflict.ExplicitGraphPolicy`) are captured
    through an equivalent item-lock encoding: each task's items are its
    *incident conflict edges*, so two tasks' item sets intersect exactly
    when their nodes are adjacent — the same greedy commit/abort
    partition, but now recordable and replayable without the graph.

:class:`TraceReplayWorkload`
    Replays a trace.  Replay tasks carry the **trace id as payload**
    (plain ints — sharded-runtime compatible), conflicts come from a
    synthesised conflict graph with an edge wherever two recorded
    neighbourhoods intersected, and each replayed commit releases
    exactly the children the recorded commit created.  Root tasks
    (``parent`` = null) are seeded in trace-id order — the canonical
    order within a trace — so two replays of the same trace under
    bit-identical selection backends draw identically.

The obs layer is notified of both directions (``workload_capture`` /
``workload_replay`` events, see :mod:`repro.obs.events`) so a run's
provenance names the exact trace it recorded or replayed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter, deque
from pathlib import Path

import numpy as np

from repro.errors import ObservabilityError, ReplayMismatchError
from repro.graph.ccgraph import CCGraph
from repro.runtime.conflict import ExplicitGraphPolicy, ItemLockPolicy
from repro.runtime.core import new_workset
from repro.runtime.task import Operator, Task
from repro.runtime.workloads import Workload

__all__ = ["WorkloadTrace", "WorkloadCapture", "TraceReplayWorkload"]

#: trace format version; bump on any incompatible record-shape change
TRACE_VERSION = 1

_HEADER = "wkheader"
_TASK = "wktask"
_COMMIT = "wkcommit"
_END = "wkend"


def _canon_json(obj) -> str:
    """Canonical one-line JSON (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _canon_payload(payload):
    """JSON-safe provenance form of a task payload.

    Payloads are stored for provenance only (replay tasks carry trace
    ids, not payloads), so lossy fallbacks are fine: JSON-native values
    pass through, dataclasses (DES events) become dicts, anything else
    becomes its ``repr``.
    """
    try:
        json.dumps(payload)
        return payload
    except (TypeError, ValueError):
        pass
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        try:
            as_dict = dataclasses.asdict(payload)
            json.dumps(as_dict)
            return as_dict
        except (TypeError, ValueError):
            pass
    return repr(payload)


def _canon_item(item):
    """JSON-scalar form of one neighbourhood item.

    Replay only needs item *equality* (shared item ⇒ conflict), so
    non-scalar items collapse to their ``repr`` — stable within one
    trace, which is the only scope replay compares across.
    """
    if isinstance(item, (bool, int, float, str)):
        return item
    if isinstance(item, np.integer):
        return int(item)
    if isinstance(item, np.floating):
        return float(item)
    return repr(item)


def _canon_items(items) -> list:
    """Deduplicated, deterministically ordered item list."""
    canon = {_canon_item(i) for i in items}
    return sorted(canon, key=lambda x: (type(x).__name__, str(x)))


class WorkloadTrace:
    """One recorded workload: tasks, commit sequence, morph ops.

    Build incrementally via :meth:`add_task` / :meth:`add_commit`
    (normally done by :class:`WorkloadCapture`), serialise with
    :meth:`save` / :meth:`to_jsonl`, reload with :meth:`load` /
    :meth:`from_jsonl`.  Loading validates the record grammar, the dense
    task-id numbering, every cross-reference, and the trailer's
    fingerprint (raising
    :class:`~repro.errors.ReplayMismatchError` on a fingerprint or count
    mismatch — the trace was edited or mixed from two runs).
    """

    VERSION = TRACE_VERSION

    def __init__(self, label: str = "workload", requires_order: bool = False):
        self.label = str(label)
        self.requires_order = bool(requires_order)
        #: per-task records, index == trace id
        self.tasks: list[dict] = []
        #: commit records in engine commit order
        self.commits: list[dict] = []
        #: total aborts observed while recording (provenance only)
        self.aborts = 0

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def add_task(self, payload, *, priority=None, parent=None) -> int:
        """Register a task, returning its dense trace id."""
        tid = len(self.tasks)
        self.tasks.append(
            {
                "id": tid,
                "payload": _canon_payload(payload),
                "priority": None if priority is None else float(priority),
                "parent": None if parent is None else int(parent),
                "items": [],
            }
        )
        return tid

    def set_items(self, tid: int, items) -> None:
        """Record the (canonical) neighbourhood items of task *tid*."""
        self.tasks[tid]["items"] = list(items)

    def add_commit(self, tid: int, *, items, children, ops) -> None:
        """Append one commit (in commit order) with its morph ops."""
        self.commits.append(
            {
                "id": int(tid),
                "items": list(items),
                "children": [int(c) for c in children],
                "ops": [[op[0], *(int(a) for a in op[1:])] for op in ops],
            }
        )

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """SHA-256 over the canonical commit table.

        Covers ids, items, children and morph ops of every commit in
        order — the replay-relevant content.  Task payload provenance is
        deliberately outside the hash (its ``repr`` fallback may vary
        across library versions without changing replay semantics).
        """
        digest = hashlib.sha256()
        for rec in self.commits:
            digest.update(_canon_json(rec).encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Canonical JSONL text of the whole trace."""
        lines = [
            _canon_json(
                {
                    "kind": _HEADER,
                    "version": self.VERSION,
                    "label": self.label,
                    "requires_order": self.requires_order,
                }
            )
        ]
        for rec in self.tasks:
            lines.append(_canon_json({"kind": _TASK, **rec}))
        for rec in self.commits:
            lines.append(_canon_json({"kind": _COMMIT, **rec}))
        lines.append(
            _canon_json(
                {
                    "kind": _END,
                    "tasks": len(self.tasks),
                    "commits": len(self.commits),
                    "aborts": self.aborts,
                    "fingerprint": self.fingerprint(),
                }
            )
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "WorkloadTrace":
        """Parse and validate a serialised trace."""
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"workload trace line {lineno} is not JSON: {line[:80]!r}"
                ) from exc
            if not isinstance(rec, dict) or "kind" not in rec:
                raise ObservabilityError(
                    f"workload trace line {lineno} is not a trace record"
                )
            records.append(rec)
        if not records or records[0]["kind"] != _HEADER:
            raise ObservabilityError("workload trace must start with a wkheader record")
        header = records[0]
        version = header.get("version")
        if version != cls.VERSION:
            raise ObservabilityError(
                f"workload trace version {version!r} is not supported "
                f"(this build reads version {cls.VERSION})"
            )
        trace = cls(
            label=header.get("label", "workload"),
            requires_order=bool(header.get("requires_order", False)),
        )
        end = None
        for rec in records[1:]:
            kind = rec["kind"]
            if end is not None:
                raise ObservabilityError("workload trace has records after wkend")
            if kind == _TASK:
                if rec.get("id") != len(trace.tasks):
                    raise ObservabilityError(
                        f"wktask ids must be dense and ordered; expected "
                        f"{len(trace.tasks)}, got {rec.get('id')!r}"
                    )
                trace.tasks.append(
                    {
                        "id": int(rec["id"]),
                        "payload": rec.get("payload"),
                        "priority": rec.get("priority"),
                        "parent": rec.get("parent"),
                        "items": list(rec.get("items", [])),
                    }
                )
            elif kind == _COMMIT:
                tid = rec.get("id")
                if not isinstance(tid, int) or not 0 <= tid < len(trace.tasks):
                    raise ObservabilityError(
                        f"wkcommit references unknown task id {tid!r}"
                    )
                children = rec.get("children", [])
                for child in children:
                    if not isinstance(child, int) or not 0 <= child < len(trace.tasks):
                        raise ObservabilityError(
                            f"wkcommit for task {tid} references unknown "
                            f"child id {child!r}"
                        )
                trace.commits.append(
                    {
                        "id": tid,
                        "items": list(rec.get("items", [])),
                        "children": [int(c) for c in children],
                        "ops": [list(op) for op in rec.get("ops", [])],
                    }
                )
            elif kind == _END:
                end = rec
            elif kind == _HEADER:
                raise ObservabilityError("workload trace has a second wkheader")
            else:
                raise ObservabilityError(f"unknown workload trace record kind {kind!r}")
        if end is None:
            raise ObservabilityError(
                "workload trace is truncated (missing the wkend trailer)"
            )
        if end.get("tasks") != len(trace.tasks) or end.get("commits") != len(
            trace.commits
        ):
            raise ReplayMismatchError(
                f"workload trace trailer counts do not match the records: "
                f"trailer says {end.get('tasks')} tasks / {end.get('commits')} "
                f"commits, file has {len(trace.tasks)} / {len(trace.commits)}"
            )
        trace.aborts = int(end.get("aborts", 0))
        expected = end.get("fingerprint")
        actual = trace.fingerprint()
        if expected != actual:
            raise ReplayMismatchError(
                f"workload trace fingerprint mismatch: trailer has "
                f"{expected!r}, commit table hashes to {actual!r}"
            )
        return trace

    def save(self, path) -> None:
        """Write the canonical JSONL form to *path*."""
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "WorkloadTrace":
        """Read and validate a trace file."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ObservabilityError(f"cannot read workload trace {path!r}: {exc}") from exc
        return cls.from_jsonl(text)

    def __repr__(self) -> str:
        return (
            f"WorkloadTrace(label={self.label!r}, tasks={len(self.tasks)}, "
            f"commits={len(self.commits)}, aborts={self.aborts})"
        )


def _edge_items(graph: CCGraph, node) -> list:
    """Item-lock encoding of explicit-graph conflicts: incident edges.

    Two nodes' incident-edge sets intersect iff the nodes are adjacent,
    so the greedy item-lock walk over these items partitions a batch
    exactly like :class:`ExplicitGraphPolicy` over the graph itself.
    """
    return [f"e:{min(node, v)}:{max(node, v)}" for v in graph.neighbors(node)]


class _CaptureOperator(Operator):
    """Operator shim that records draws, commits, children and aborts."""

    def __init__(self, capture: "WorkloadCapture"):
        self._cap = capture

    def neighborhood(self, task: Task):
        cap = self._cap
        tid = cap._register(task)
        if cap._edge_graph is not None:
            # explicit-graph conflicts, re-encoded as incident-edge items
            items = _edge_items(cap._edge_graph, task.payload)
            cap._items[tid] = _canon_items(items)
            return items
        items = cap._inner_op.neighborhood(task)
        if not isinstance(items, (list, tuple, set, frozenset)):
            items = tuple(items)  # materialise one-shot iterators
        cap._items[tid] = _canon_items(items)
        return items

    def apply(self, task: Task):
        cap = self._cap
        tid = cap._register(task)
        cap._ops_buffer = buffered = []
        try:
            created = cap._inner_op.apply(task)
        finally:
            cap._ops_buffer = None
        created = list(created) if created else []
        children = [cap._register(t, parent=tid) for t in created]
        cap.trace.add_commit(
            tid, items=cap._items.get(tid, []), children=children, ops=buffered
        )
        return created

    def apply_batch(self, tasks: "list[Task]"):
        # per-task walk so every commit gets its own morph-op attribution;
        # result-identical to the engine's batched path (whose contract is
        # exact equivalence with the per-task loop)
        new_tasks: list[Task] = []
        for task in tasks:
            created = self.apply(task)
            if created:
                new_tasks.extend(created)
        return new_tasks

    def on_abort(self, task: Task) -> None:
        cap = self._cap
        cap._register(task)
        cap.trace.aborts += 1
        cap._inner_op.on_abort(task)


class WorkloadCapture(Workload):
    """Wrap a workload so the run it powers is recorded as a trace.

    Speaks the full workload protocol (``workset`` / ``operator`` /
    ``policy`` / ``requires_order`` / ``priority_of`` /
    :meth:`make_engine`), delegating everything to the wrapped workload
    while the interposed :class:`_CaptureOperator` records.  After the
    run, :meth:`save` finalises and writes the trace.

    Capture keys tasks by their process-unique ``uid``; trace ids are
    dense in first-observation order, which for the initial work-set
    means first-draw order — canonical *within* the trace, which is the
    only scope replays compare across.
    """

    def __init__(self, workload, *, label: "str | None" = None):
        self.inner = workload
        self.requires_order = bool(getattr(workload, "requires_order", False))
        self.trace = WorkloadTrace(
            label=label if label is not None else type(workload).__name__,
            requires_order=self.requires_order,
        )
        self.workset = workload.workset
        self._inner_op = workload.operator
        inner_policy = getattr(workload, "policy", None)
        self._edge_graph = None
        if isinstance(inner_policy, ExplicitGraphPolicy):
            # record through the equivalent item-lock encoding (see
            # _edge_items) — ExplicitGraphPolicy never consults the
            # operator, so capturing under it would record nothing
            self._edge_graph = inner_policy.graph
            self.policy = ItemLockPolicy()
        else:
            self.policy = inner_policy
        self._ids: dict[int, int] = {}  # task.uid -> trace id
        self._items: dict[int, list] = {}  # trace id -> canonical items
        self._ops_buffer: "list | None" = None
        self.operator = _CaptureOperator(self)
        self._graph: "CCGraph | None" = None
        graph = getattr(workload, "graph", None)
        if isinstance(graph, CCGraph):
            graph.set_morph_hook(self._on_morph)
            self._graph = graph

    # ------------------------------------------------------------------
    def _register(self, task: Task, parent: "int | None" = None) -> int:
        tid = self._ids.get(task.uid)
        if tid is None:
            try:
                priority = float(self.priority_of(task))
            except (TypeError, ValueError):
                priority = None
            tid = self.trace.add_task(task.payload, priority=priority, parent=parent)
            self._ids[task.uid] = tid
        return tid

    def _on_morph(self, *op) -> None:
        if self._ops_buffer is not None:
            self._ops_buffer.append(op)
        # morphs outside a commit (workload construction, teardown) are
        # environment setup, not task effects — not recorded

    # ------------------------------------------------------------------
    # workload protocol
    # ------------------------------------------------------------------
    def priority_of(self, task: Task) -> float:
        inner = getattr(self.inner, "priority_of", None)
        if inner is not None:
            return inner(task)
        return float(task.payload)

    # ------------------------------------------------------------------
    def finalize(self) -> WorkloadTrace:
        """Seal the recording: fill per-task items, detach the morph hook.

        Idempotent; returns the finished :class:`WorkloadTrace` (also
        available as :attr:`trace`).
        """
        for tid, items in self._items.items():
            self.trace.set_items(tid, items)
        if self._graph is not None:
            self._graph.set_morph_hook(None)
            self._graph = None
        return self.trace

    def save(self, path) -> "WorkloadTrace":
        """Finalise the trace and write it to *path* (obs-notified)."""
        self.finalize().save(path)
        from repro.obs.events import WORKLOAD_CAPTURE
        from repro.obs.recorder import active_recorder

        recorder = active_recorder()
        if recorder is not None:
            recorder.emit(
                WORKLOAD_CAPTURE,
                0,
                path=str(path),
                label=self.trace.label,
                tasks=len(self.trace.tasks),
                commits=len(self.trace.commits),
                aborts=self.trace.aborts,
                fingerprint=self.trace.fingerprint(),
            )
        return self.trace


class _ReplayOperator(Operator):
    """Replays recorded commits: children out, everything else counted."""

    def __init__(self, workload: "TraceReplayWorkload"):
        self._wl = workload

    def neighborhood(self, task: Task):
        # recorded canonical items — used by item-lock style policies
        # (ordered/relaxed task loops); the explicit-graph policy built
        # by the workload encodes the same conflicts as edges
        return self._wl._items.get(task.payload, ())

    def apply(self, task: Task):
        wl = self._wl
        tid = task.payload
        wl.committed_ids.append(tid)
        queue = wl._children.get(tid)
        if not queue:
            # committed on replay more often than while recording (e.g.
            # the recording was cut by max_steps) — no effects known
            wl.unrecorded_commits += 1
            return []
        # stationary workloads commit the same task many times, each
        # occurrence with its own recorded children — consume in order
        children = queue.popleft()
        return [Task(payload=cid) for cid in children]

    def apply_batch(self, tasks: "list[Task]"):
        new_tasks: list[Task] = []
        for task in tasks:
            created = self.apply(task)
            if created:
                new_tasks.extend(created)
        return new_tasks


class TraceReplayWorkload(Workload):
    """Deterministic re-execution of a recorded workload trace.

    Replay tasks carry the trace id as payload (plain ints, so the
    sharded runtime's partition/two-phase-commit machinery applies
    unchanged); conflicts come from a synthesised conflict graph with an
    edge wherever two recorded neighbourhoods shared an item — the same
    relation the recording resolved, whichever policy it used.  Each
    replayed commit releases exactly the recorded children; commits the
    recording never saw are counted in :attr:`unrecorded_commits`
    instead of inventing effects.

    Use :meth:`load` (or ``RunConfig(workload="trace:<path>")``) for the
    file-based path; construct directly from a :class:`WorkloadTrace`
    for in-memory round-trips.
    """

    def __init__(self, trace: WorkloadTrace, *, workset=None):
        self.trace = trace
        self.requires_order = bool(trace.requires_order)
        if workset is None:
            if self.requires_order:
                from repro.runtime.policies import PriorityWorkset

                workset = PriorityWorkset()
            else:
                workset = new_workset()
        self.workset = workset
        self._priority_seeding = hasattr(workset, "take_earliest")

        # conflict graph over trace ids: edge iff recorded items intersect
        graph = CCGraph()
        for _ in trace.tasks:
            graph.add_node()
        incidence: dict = {}
        for rec in trace.tasks:
            for item in rec["items"]:
                incidence.setdefault(item, []).append(rec["id"])
        for tids in incidence.values():
            for i, u in enumerate(tids):
                for v in tids[i + 1 :]:
                    if u != v:
                        graph.add_edge(u, v)
        self.graph = graph
        self.policy = ExplicitGraphPolicy(
            graph, csr_deltas=bool(getattr(workset, "incremental", False))
        )

        self._items = {rec["id"]: tuple(rec["items"]) for rec in trace.tasks}
        self._priorities = {rec["id"]: rec["priority"] for rec in trace.tasks}
        # per-id queues of children lists, one entry per recorded commit
        self._children: "dict[int, deque]" = {}
        for rec in trace.commits:
            self._children.setdefault(rec["id"], deque()).append(rec["children"])
        self._recorded_counts = Counter(rec["id"] for rec in trace.commits)
        self.committed_ids: list[int] = []
        self.unrecorded_commits = 0
        self.operator = _ReplayOperator(self)

        # roots (never created by a commit) seed the work-set in
        # trace-id order — the canonical seeding of this trace
        for rec in trace.tasks:
            if rec["parent"] is None:
                task = Task(payload=rec["id"])
                if self._priority_seeding:
                    workset.add(task, self.priority_of(task))
                else:
                    workset.add(task)

    # ------------------------------------------------------------------
    # workload protocol
    # ------------------------------------------------------------------
    def priority_of(self, task: Task) -> float:
        priority = self._priorities.get(task.payload)
        return float(priority) if priority is not None else float(task.payload)

    # ------------------------------------------------------------------
    def replay_complete(self) -> bool:
        """Whether the replay committed exactly the recorded commits.

        Compares commit *multisets* — the trace's commit order itself may
        legitimately differ across engine configurations (that is the
        point of replaying); what must agree is the committed work.
        """
        return (
            self.unrecorded_commits == 0
            and Counter(self.committed_ids) == self._recorded_counts
        )

    @classmethod
    def load(cls, path, *, workset=None) -> "TraceReplayWorkload":
        """Build a replay workload from a trace file (obs-notified)."""
        return cls.from_trace(WorkloadTrace.load(path), path=path, workset=workset)

    @classmethod
    def from_trace(
        cls, trace: WorkloadTrace, *, path=None, workset=None
    ) -> "TraceReplayWorkload":
        """Build a replay from an in-memory trace.

        *path* (when the trace came from a file) is recorded in the
        ``workload_replay`` obs event so a run's provenance names its
        source recording; purely in-memory round-trips emit nothing.
        """
        workload = cls(trace, workset=workset)
        if path is not None:
            from repro.obs.events import WORKLOAD_REPLAY
            from repro.obs.recorder import active_recorder

            recorder = active_recorder()
            if recorder is not None:
                recorder.emit(
                    WORKLOAD_REPLAY,
                    0,
                    path=str(path),
                    label=trace.label,
                    tasks=len(trace.tasks),
                    commits=len(trace.commits),
                    fingerprint=trace.fingerprint(),
                )
        return workload

    def __repr__(self) -> str:
        return (
            f"TraceReplayWorkload(label={self.trace.label!r}, "
            f"tasks={len(self.trace.tasks)}, "
            f"recorded_commits={len(self._children)}, "
            f"replayed={len(self.committed_ids)})"
        )
