"""Typed run/sweep configuration: frozen, validated, JSON round-trippable.

Before this layer, experiment invocations travelled as ad-hoc strings
and loose kwargs threaded through ``api.py``, the CLI, and the sweep
harness.  :class:`RunConfig` and :class:`SweepConfig` replace that:

* **frozen dataclasses** — a config is a value; hash it, compare it,
  put it in a cache key;
* **validation at construction** — bad values (``rho`` outside ``(0,1)``,
  ``m_min > m_max``, negative retries) raise
  :class:`~repro.errors.ConfigError` immediately, not steps later inside
  an engine;
* **canonical JSON round-trip** — :meth:`RunConfig.to_dict` /
  :meth:`RunConfig.from_dict` (and the ``to_json``/``from_json``
  wrappers) are exact inverses, so the sweep journal and the
  content-addressed result cache serialise the *whole* config instead of
  a hand-picked field subset.

A :class:`RunConfig` describes either one registered experiment
(``experiment="fig3"``) or one engine run assembled from registry names
(``workload=``, ``controller=``, ``conflict=`` — resolved against
:mod:`repro.registry` by :func:`repro.api.run`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.errors import ConfigError
from repro.utils.rng import derive_seed

__all__ = ["RunConfig", "SweepConfig"]

#: engine modes a config may pin (``None`` means ``"reference"``)
_ENGINE_MODES = ("reference", "fast")
#: config payload layout version (bump on incompatible change)
CONFIG_SCHEMA = 1


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _opt_int(value: "Any", name: str, minimum: "int | None" = None) -> "int | None":
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an int or None, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """One run: a registered experiment, or an engine assembled by name.

    ``experiment`` selects a registered experiment (``"fig1"`` …); the
    remaining fields configure a direct engine run through
    :func:`repro.api.run` and double as the experiment run's provenance
    record.  Every field is JSON-representable and the dataclass is
    frozen, so a config can serve as a cache key, a journal record, and
    a cross-process message without translation.

    Attributes
    ----------
    experiment:
        Registered experiment name, or ``None`` for a direct engine run.
    seed:
        Explicit RNG seed; ``None`` derives one (see
        :meth:`resolved_seed` for sweeps).
    quick:
        Reduced problem sizes (experiment runs only).
    workload:
        Registered workload factory name: a synthetic graph workload
        (``"replay"``, ``"consuming"``, ``"regenerating"`` — these need
        ``graph=``), an application (``"boruvka"``, ``"delaunay"``,
        ``"coloring"``, ``"des"``, ``"maxflow"``, ``"sp"``,
        ``"clustering"``, ``"components"``, optionally with a
        ``":<scale>"`` suffix — these synthesise a seeded input when no
        ``graph=`` is passed), or a recorded workload trace to replay
        (``"trace:<path>"``).  Ordered-only apps (``"des"``) reject
        unordered ``order=`` specs at construction time.
    controller:
        Registered controller factory name (default ``"hybrid"``,
        the paper's Algorithm 1).
    conflict:
        Registered conflict-policy name for task-loop runs
        (``"item-lock"``, ``"explicit-graph"``).
    rho:
        Target conflict ratio in ``(0, 1)``.
    m:
        Fixed allocation (``controller="fixed"`` only).
    m_min, m_max:
        Allocation clamp range; ``m_min=None`` keeps each controller's
        own default.
    engine:
        ``"reference"`` / ``"fast"`` kernel path; ``None`` means
        ``"reference"``.  Engine runs only: an experiment fixes its own
        engines, so combining ``experiment`` with ``engine`` is a
        :class:`~repro.errors.ConfigError`.
    select:
        Registered selection-backend name for the work-set
        (``"workset"`` for the reference sampler, ``"incremental"`` for
        the dense active set — both bit-identical under the same seed);
        ``None`` means ``"incremental"``, the faster of the two on every
        benchmarked workload.  Engine runs only, like ``engine``.
        Third-party names registered under
        ``"select-backend"`` are accepted too.  Only meaningful for
        unordered runs: priority/arrival commit orders bring their own
        work-set, so combining them with an explicit ``select`` is a
        :class:`~repro.errors.ConfigError`.
    order:
        Commit-order policy spec: ``"unordered"`` (the §2 uniform-draw
        model), ``"ordered"`` (strict priority order with
        barrier/horizon rules), ``"relaxed:k"`` (k-of-top priority
        relaxation, ``k >= 1``), ``"async"`` / ``"async:w"``
        (arrival order with staleness window ``w``),
        ``"sharded"`` / ``"sharded:s"`` (partitioned two-phase
        resolution with halo exchange over ``s`` shards), or ``None``
        to infer the policy from the run inputs (the historical
        behaviour).  The base name is validated **eagerly** against the
        ``"order-policy"`` registry — an unknown name raises
        :class:`~repro.errors.RegistryError` listing every available
        policy at construction time, not steps later inside an engine.
    shards:
        Shard count for ``order="sharded"`` (equivalent to the
        ``"sharded:s"`` spec suffix; both given must agree).  Any other
        order spec rejects it — a silently ignored shard count would
        misreport what actually ran.
    max_steps:
        Step cap for engine runs (required by replay workloads, which
        never drain).
    """

    experiment: "str | None" = None
    seed: "int | None" = None
    quick: bool = False
    workload: str = "replay"
    controller: str = "hybrid"
    conflict: str = "item-lock"
    rho: float = 0.25
    m: "int | None" = None
    m_min: "int | None" = None
    m_max: int = 1024
    engine: "str | None" = None
    select: "str | None" = None
    order: "str | None" = None
    shards: "int | None" = None
    max_steps: "int | None" = None

    def __post_init__(self) -> None:
        if self.experiment is not None:
            _require(
                isinstance(self.experiment, str) and bool(self.experiment),
                f"experiment must be a non-empty string or None, got {self.experiment!r}",
            )
            # an experiment wires its own engines; a silently ignored
            # engine/select would misreport what actually ran
            for name in ("engine", "select"):
                _require(
                    getattr(self, name) is None,
                    f"{name}={getattr(self, name)!r} configures engine runs; "
                    f"experiment={self.experiment!r} fixes its own",
                )
        _opt_int(self.seed, "seed")
        for name in ("workload", "controller", "conflict"):
            value = getattr(self, name)
            _require(
                isinstance(value, str) and bool(value),
                f"{name} must be a non-empty registry name, got {value!r}",
            )
        _require(
            isinstance(self.rho, (int, float)) and 0.0 < float(self.rho) < 1.0,
            f"target conflict ratio rho must be in (0,1), got {self.rho!r}",
        )
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "quick", bool(self.quick))
        _opt_int(self.m, "m", minimum=1)
        _opt_int(self.m_min, "m_min", minimum=1)
        _require(
            isinstance(self.m_max, int) and not isinstance(self.m_max, bool)
            and self.m_max >= 1,
            f"m_max must be an int >= 1, got {self.m_max!r}",
        )
        if self.m_min is not None:
            _require(
                self.m_min <= self.m_max,
                f"empty allocation range [{self.m_min}, {self.m_max}]",
            )
        if self.engine is not None:
            _require(
                self.engine in _ENGINE_MODES,
                f"engine must be one of {_ENGINE_MODES} or None, got {self.engine!r}",
            )
        if self.select is not None:
            # any registry name is allowed here; the "select-backend"
            # registry rejects unknown ones with the available list
            _require(
                isinstance(self.select, str) and bool(self.select),
                f"select must be a non-empty backend name or None, got {self.select!r}",
            )
        if self.order is not None:
            _require(
                isinstance(self.order, str) and bool(self.order),
                f"order must be a non-empty policy spec or None, got {self.order!r}",
            )
            # eager registry validation: an unknown order-policy name
            # raises RegistryError (listing every registered policy) at
            # construction time, not steps later inside an engine.  The
            # import is function-level — config sits below the registry
            # layer, and that is the sanctioned way to reach up at call
            # time (tools/check_layers.py exempts it).
            from repro.registry import ORDER_POLICIES, order_family, parse_order_spec

            name, _ = parse_order_spec(self.order)
            ORDER_POLICIES.get(name)
            if self.select is not None and order_family(name) != "unordered":
                raise ConfigError(
                    f"order={self.order!r} brings its own work-set; "
                    f"it cannot be combined with select={self.select!r}"
                )
        # eager workload-spec validation, mirroring the order check
        # above: malformed specs ("trace:" without a path, "boruvka:x"
        # without an integer scale) and ordered-only apps combined with
        # an unordered commit order fail at construction time
        from repro.registry import parse_workload_spec

        workload_name, _ = parse_workload_spec(self.workload)
        if self.order is not None:
            from repro.apps.catalog import check_order_combination

            check_order_combination(workload_name, self.order)
        _opt_int(self.shards, "shards", minimum=1)
        if self.shards is not None:
            # shards only means something to the sharded commit order;
            # anywhere else a silently ignored count would be a footgun
            from repro.registry import parse_order_spec

            name, kwargs = (
                parse_order_spec(self.order) if self.order is not None else (None, {})
            )
            if name != "sharded":
                raise ConfigError(
                    f'shards={self.shards} requires order="sharded", '
                    f"got order={self.order!r}"
                )
            spec_shards = kwargs.get("shards")
            if spec_shards is not None and spec_shards != self.shards:
                raise ConfigError(
                    f"order={self.order!r} and shards={self.shards} disagree"
                )
        _opt_int(self.max_steps, "max_steps", minimum=0)

    # -- seeds ----------------------------------------------------------
    def resolved_seed(self, base_seed: int) -> int:
        """The seed this run actually uses.

        Explicit seeds pass through; otherwise one is derived from
        ``(base_seed, experiment name)`` — stable across sweeps, worker
        counts, and config ordering.
        """
        if self.seed is not None:
            return int(self.seed)
        return derive_seed(base_seed, "sweep", self.experiment or "run")

    def with_seed(self, seed: int) -> "RunConfig":
        """A copy of this config pinned to an explicit *seed*."""
        return replace(self, seed=int(seed))

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        """Plain JSON-able mapping of every field (exact inverse of
        :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` output; rejects unknown keys."""
        if not isinstance(payload, dict):
            raise ConfigError(f"RunConfig payload must be a dict, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown RunConfig field(s): {', '.join(unknown)}")
        return cls(**payload)

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace variance)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"RunConfig JSON does not parse: {exc}") from exc
        return cls.from_dict(payload)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep invocation: the run list plus every harness knob.

    Serialising this (``to_dict``/``to_json``) is the sweep's stable
    schema: the journal's ``sweep_start`` record carries it, so a resumed
    or audited sweep knows exactly what was asked for — not just how many
    configs there were.
    """

    runs: "tuple[RunConfig, ...]" = ()
    base_seed: int = 0
    jobs: int = 1
    cache_dir: "str | None" = None
    timeout: "float | None" = None
    retries: int = 0
    quarantine: bool = False
    quarantine_after: "int | None" = None
    backoff_base: float = 0.1
    backoff_cap: float = 5.0
    backoff_jitter: float = 0.5
    isolate: bool = False
    resume: bool = False
    #: schema version stamped into serialised payloads
    schema: int = field(default=CONFIG_SCHEMA, compare=False)

    def __post_init__(self) -> None:
        runs = tuple(
            run if isinstance(run, RunConfig) else self._coerce_run(run)
            for run in self.runs
        )
        _require(bool(runs), "a SweepConfig needs at least one run")
        object.__setattr__(self, "runs", runs)
        _require(
            isinstance(self.jobs, int) and not isinstance(self.jobs, bool)
            and self.jobs >= 1,
            f"jobs must be an int >= 1, got {self.jobs!r}",
        )
        _require(
            isinstance(self.retries, int) and not isinstance(self.retries, bool)
            and self.retries >= 0,
            f"retries must be an int >= 0, got {self.retries!r}",
        )
        if self.timeout is not None:
            _require(
                isinstance(self.timeout, (int, float)) and self.timeout > 0,
                f"timeout must be > 0 seconds, got {self.timeout!r}",
            )
        _opt_int(self.quarantine_after, "quarantine_after", minimum=1)
        for name in ("backoff_base", "backoff_cap", "backoff_jitter"):
            _require(
                isinstance(getattr(self, name), (int, float))
                and getattr(self, name) >= 0,
                f"{name} must be >= 0, got {getattr(self, name)!r}",
            )
        _require(
            isinstance(self.base_seed, int) and not isinstance(self.base_seed, bool),
            f"base_seed must be an int, got {self.base_seed!r}",
        )
        _require(
            self.schema == CONFIG_SCHEMA,
            f"unsupported SweepConfig schema {self.schema!r} (this code reads {CONFIG_SCHEMA})",
        )

    @staticmethod
    def _coerce_run(run) -> RunConfig:
        if isinstance(run, str):
            return RunConfig(experiment=run)
        if isinstance(run, dict):
            return RunConfig.from_dict(run)
        raise ConfigError(
            f"each run must be a RunConfig, experiment name, or dict, got {run!r}"
        )

    # -- harness adapters ----------------------------------------------
    def policy(self):
        """The :class:`~repro.experiments.parallel.SweepPolicy` these knobs
        describe (import deferred: config sits below the experiments layer)."""
        from repro.experiments.parallel import SweepPolicy

        return SweepPolicy(
            timeout=self.timeout,
            max_retries=self.retries,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            backoff_jitter=self.backoff_jitter,
            quarantine=self.quarantine,
            quarantine_after=self.quarantine_after,
            isolate=self.isolate,
        )

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["runs"] = [run.to_dict() for run in self.runs]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepConfig":
        if not isinstance(payload, dict):
            raise ConfigError(f"SweepConfig payload must be a dict, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown SweepConfig field(s): {', '.join(unknown)}")
        data = dict(payload)
        if "runs" in data:
            data["runs"] = tuple(cls._coerce_run(run) for run in data["runs"])
        return cls(**data)

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace variance)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"SweepConfig JSON does not parse: {exc}") from exc
        return cls.from_dict(payload)
