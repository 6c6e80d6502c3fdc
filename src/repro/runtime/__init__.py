"""Optimistic parallelization runtime: tasks, work-sets, conflicts, engine."""

from repro.runtime.active_set import ActiveSet
from repro.runtime.conflict import (
    BatchOutcome,
    ConflictPolicy,
    ExplicitGraphPolicy,
    ItemLockPolicy,
)
from repro.runtime.costs import (
    CostModel,
    CostTotals,
    ScaledAbortCostModel,
    UnitCostModel,
)
from repro.runtime.core import (
    Engine,
    OrderPolicy,
    resolve_engine_mode,
    resolve_select_backend,
)
from repro.runtime.engine import OptimisticEngine
from repro.runtime.ordered import OrderedBatchOutcome, OrderedEngine, PriorityWorkset
from repro.runtime.policies import (
    ASYNC_DEFAULT_WINDOW,
    AsyncCommitOrder,
    OrderedCommitOrder,
    RelaxedCommitOrder,
    ShardedCommitOrder,
    UnorderedCommitOrder,
)
from repro.runtime.recording import RunRecorder, diff_runs, load_run, save_run
from repro.runtime.sharded import ShardPool, run_sharded
from repro.runtime.supervise import PersistentWorker, SupervisedProcess, mp_context
from repro.runtime.stats import RunResult, StepStats
from repro.runtime.task import CallbackOperator, Operator, Task
from repro.runtime.threads import ThreadedSpeculativeExecutor
from repro.runtime.wktrace import (
    TraceReplayWorkload,
    WorkloadCapture,
    WorkloadTrace,
)
from repro.runtime.workloads import (
    ConsumingGraphWorkload,
    GraphWorkloadBase,
    RegeneratingGraphWorkload,
    ReplayGraphWorkload,
    Workload,
)
from repro.runtime.workset import (
    ArrivalWorkset,
    FifoWorkset,
    LifoWorkset,
    RandomWorkset,
    Workset,
)

__all__ = [
    "ActiveSet",
    "CostModel",
    "CostTotals",
    "ScaledAbortCostModel",
    "UnitCostModel",
    "BatchOutcome",
    "ConflictPolicy",
    "ExplicitGraphPolicy",
    "ItemLockPolicy",
    "Engine",
    "OrderPolicy",
    "resolve_engine_mode",
    "resolve_select_backend",
    "OptimisticEngine",
    "OrderedBatchOutcome",
    "OrderedCommitOrder",
    "OrderedEngine",
    "PriorityWorkset",
    "RelaxedCommitOrder",
    "AsyncCommitOrder",
    "ASYNC_DEFAULT_WINDOW",
    "ShardedCommitOrder",
    "UnorderedCommitOrder",
    "ShardPool",
    "run_sharded",
    "PersistentWorker",
    "SupervisedProcess",
    "mp_context",
    "RunRecorder",
    "diff_runs",
    "load_run",
    "save_run",
    "RunResult",
    "StepStats",
    "CallbackOperator",
    "Operator",
    "Task",
    "ThreadedSpeculativeExecutor",
    "TraceReplayWorkload",
    "WorkloadCapture",
    "WorkloadTrace",
    "ConsumingGraphWorkload",
    "GraphWorkloadBase",
    "RegeneratingGraphWorkload",
    "ReplayGraphWorkload",
    "Workload",
    "ArrivalWorkset",
    "FifoWorkset",
    "LifoWorkset",
    "RandomWorkset",
    "Workset",
]
