"""Typed configs: validation at construction and exact JSON round-trips."""

import json

import pytest

from repro.config import RunConfig, SweepConfig
from repro.errors import ConfigError


class TestRunConfigValidation:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.experiment is None
        assert cfg.controller == "hybrid"
        assert cfg.rho == 0.25

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, 1.5, "quarter", None])
    def test_rho_outside_open_interval_rejected(self, rho):
        with pytest.raises(ConfigError, match="rho"):
            RunConfig(rho=rho)

    def test_rho_coerced_to_float(self):
        # ints inside (0,1) cannot exist, but numpy-ish floats normalise
        assert isinstance(RunConfig(rho=0.5).rho, float)

    def test_m_min_greater_than_m_max_rejected(self):
        with pytest.raises(ConfigError, match="empty allocation range"):
            RunConfig(m_min=64, m_max=32)

    def test_m_min_equal_m_max_allowed(self):
        cfg = RunConfig(m_min=32, m_max=32)
        assert (cfg.m_min, cfg.m_max) == (32, 32)

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.5),
        ("seed", True),  # bools are not seeds
        ("m", 0),
        ("m_min", 0),
        ("m_max", 0),
        ("max_steps", -1),
        ("engine", "turbo"),
        ("experiment", ""),
        ("workload", ""),
        ("controller", None),
        ("conflict", ""),
    ])
    def test_bad_field_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("engine", "fast"),
        ("engine", "reference"),
        ("select", "incremental"),
        ("select", "workset"),
    ])
    def test_engine_knobs_rejected_on_experiment(self, field, value):
        # an experiment wires its own engines: a silently ignored knob
        # would misreport what ran (same rule as shards without sharding)
        with pytest.raises(ConfigError, match=f"{field}=.*experiment='fig3'"):
            RunConfig(experiment="fig3", **{field: value})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"experiment": "fig3", field: value})
        assert getattr(RunConfig(**{field: value}), field) == value

    def test_positional_experiment_compat(self):
        # the historical parallel.RunConfig("fig1", seed=1, quick=True) shape
        cfg = RunConfig("fig1", seed=1, quick=True)
        assert (cfg.experiment, cfg.seed, cfg.quick) == ("fig1", 1, True)

    def test_frozen_and_hashable(self):
        cfg = RunConfig("fig1")
        with pytest.raises(AttributeError):
            cfg.seed = 3
        assert cfg == RunConfig("fig1")
        assert len({RunConfig("fig1"), RunConfig("fig1")}) == 1

    def test_resolved_seed_explicit_passthrough(self):
        assert RunConfig("fig1", seed=9).resolved_seed(0) == 9

    def test_resolved_seed_derived_is_stable(self):
        a = RunConfig("fig1").resolved_seed(0)
        assert a == RunConfig("fig1").resolved_seed(0)
        assert a != RunConfig("fig2").resolved_seed(0)
        assert a != RunConfig("fig1").resolved_seed(1)

    def test_with_seed(self):
        cfg = RunConfig("fig1").with_seed(5)
        assert cfg.seed == 5
        assert RunConfig("fig1").seed is None  # original untouched


class TestRunConfigOrderValidation:
    @pytest.mark.parametrize(
        "order",
        ["unordered", "ordered", "relaxed:1", "relaxed:16", "async", "async:4"],
    )
    def test_known_specs_accepted_verbatim(self, order):
        assert RunConfig(order=order).order == order

    def test_unknown_policy_name_rejected_at_construction(self):
        from repro.errors import RegistryError

        with pytest.raises(RegistryError, match="order policy") as err:
            RunConfig(order="chaotic")
        # the error enumerates the registry so typos are self-diagnosing
        for name in ("unordered", "ordered", "relaxed", "async"):
            assert name in str(err.value)

    @pytest.mark.parametrize(
        "order",
        [
            "",            # empty spec
            "relaxed",     # depth is mandatory
            "relaxed:0",   # depth must be >= 1
            "relaxed:two", # depth must be an int
            "ordered:3",   # strict order takes no parameter
            "async:x",     # window must be an int
        ],
    )
    def test_malformed_specs_rejected_at_construction(self, order):
        with pytest.raises(ConfigError):
            RunConfig(order=order)

    def test_priority_order_incompatible_with_select_backend(self):
        with pytest.raises(ConfigError, match="work-set"):
            RunConfig(order="relaxed:4", select="incremental")

    def test_unordered_order_composes_with_select_backend(self):
        cfg = RunConfig(order="unordered", select="incremental")
        assert (cfg.order, cfg.select) == ("unordered", "incremental")

    def test_order_round_trips_through_dict_and_json(self):
        cfg = RunConfig(workload="consuming", order="relaxed:8", seed=3)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert RunConfig.from_json(cfg.to_json()) == cfg
        assert RunConfig.from_json(cfg.to_json()).order == "relaxed:8"


class TestRunConfigSerialisation:
    def test_round_trip_is_exact(self):
        # engine/select are engine-run fields, so the experiment fields
        # round-trip in a config of their own
        for cfg in (
            RunConfig(
                seed=11, workload="consuming", controller="aimd",
                conflict="explicit-graph", rho=0.4, m_min=2, m_max=256,
                engine="fast", select="workset", max_steps=50,
            ),
            RunConfig("fig3", seed=11, quick=True, order="async:8"),
        ):
            assert RunConfig.from_dict(cfg.to_dict()) == cfg
            assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_json_is_canonical(self):
        text = RunConfig("fig1").to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown RunConfig field"):
            RunConfig.from_dict({"experiment": "fig1", "warp_factor": 9})

    def test_bad_payload_types_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(["fig1"])
        with pytest.raises(ConfigError, match="does not parse"):
            RunConfig.from_json("{not json")


class TestSweepConfigValidation:
    def test_needs_at_least_one_run(self):
        with pytest.raises(ConfigError, match="at least one run"):
            SweepConfig(runs=())

    def test_runs_coerced_from_names_and_dicts(self):
        cfg = SweepConfig(runs=("fig1", {"experiment": "fig2", "quick": True}))
        assert cfg.runs == (RunConfig("fig1"), RunConfig("fig2", quick=True))

    @pytest.mark.parametrize("field,value", [
        ("jobs", 0),
        ("retries", -1),
        ("timeout", 0),
        ("timeout", -3.0),
        ("quarantine_after", 0),
        ("backoff_base", -0.1),
        ("base_seed", None),
        ("schema", 99),
    ])
    def test_bad_field_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            SweepConfig(runs=("fig1",), **{field: value})

    def test_policy_adapter_maps_every_knob(self):
        cfg = SweepConfig(
            runs=("fig1",), timeout=30.0, retries=2, quarantine=True,
            quarantine_after=5, backoff_base=0.2, backoff_cap=9.0,
            backoff_jitter=0.0, isolate=True,
        )
        policy = cfg.policy()
        assert policy.timeout == 30.0
        assert policy.max_retries == 2
        assert policy.quarantine is True
        assert policy.quarantine_after == 5
        assert policy.backoff_base == 0.2
        assert policy.backoff_cap == 9.0
        assert policy.backoff_jitter == 0.0
        assert policy.isolate is True


class TestSweepConfigSerialisation:
    def test_round_trip_is_exact(self):
        cfg = SweepConfig(
            runs=(RunConfig("fig1", seed=1), RunConfig("fig2", quick=True)),
            base_seed=7, jobs=3, cache_dir="/tmp/cache", timeout=12.5,
            retries=1, quarantine=True, quarantine_after=4, resume=True,
        )
        assert SweepConfig.from_dict(cfg.to_dict()) == cfg
        assert SweepConfig.from_json(cfg.to_json()) == cfg

    def test_nested_runs_serialise_as_dicts(self):
        payload = SweepConfig(runs=("fig1",)).to_dict()
        assert payload["runs"] == [RunConfig("fig1").to_dict()]
        assert json.dumps(payload)  # whole payload is JSON-able

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown SweepConfig field"):
            SweepConfig.from_dict({"runs": ["fig1"], "warp_factor": 9})
