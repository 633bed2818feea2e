"""Tests for configuration validation and derived values."""

import dataclasses
import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    DDP_MAX_DELAY_US,
    MAX_SWEEP_SYMBOLS,
    MAX_SYMBOLS,
    MAX_TASKS,
    CloudExConfig,
    default_symbols,
)
from repro.core.shardrun import ShardRunConfig
from repro.runspec import JobError, build_sweep_spec, normalize_job
from repro.sim.timeunits import MICROSECOND, MILLISECOND, SECOND


class TestDefaults:
    def test_paper_testbed_shape(self):
        config = CloudExConfig()
        assert config.n_participants == 48
        assert config.n_gateways == 16
        assert config.n_symbols == 100
        assert config.aggregate_order_rate == pytest.approx(48 * 450.0)

    def test_symbols_generated(self):
        config = CloudExConfig(n_symbols=5)
        assert config.symbols == ["SYM000", "SYM001", "SYM002", "SYM003", "SYM004"]

    def test_explicit_symbols_override_count(self):
        config = CloudExConfig(symbols=["AAA", "BBB"], subscriptions_per_participant=2)
        assert config.n_symbols == 2


#: Every option a run can set, sorted.  Adding a knob is a one-line diff
#: here; a testbed calibration number is a constant in repro.core.config.
CONFIG_FIELDS = (
    "ack_max_retries",
    "ack_retry_backoff",
    "ack_timeout_ms",
    "cancel_fraction",
    "chaos",
    "clock_sync",
    "dbo_guard_cap_us",
    "dbo_window",
    "ddp_inbound_target",
    "ddp_outbound_target",
    "ddp_update_every",
    "ddp_window",
    "fairness_policy",
    "gateway_failover",
    "holdrelease_delay_us",
    "injected_delay_phases_us",
    "injected_gateway_fraction",
    "injected_phase_seconds",
    "market_order_fraction",
    "n_gateways",
    "n_participants",
    "n_shards",
    "n_symbols",
    "orders_per_participant_per_s",
    "persist_snapshots",
    "persist_trades",
    "pfo_threshold",
    "replication_factor",
    "ros_dedup_ttl_s",
    "seed",
    "self_trade_prevention",
    "sequencer_delay_us",
    "snapshot_interval_ms",
    "spike_prob",
    "straggler_gateways",
    "straggler_multiplier",
    "subscriptions_per_participant",
    "symbols",
    "trace_sample_rate",
    "tracing",
)


class TestOptionSurface:
    def test_fields_are_exactly_the_committed_tuple(self):
        assert tuple(sorted(f.name for f in dataclasses.fields(CloudExConfig))) == CONFIG_FIELDS

    @pytest.mark.parametrize("cls", [CloudExConfig, ShardRunConfig])
    def test_every_field_declares_its_check(self, cls):
        # A field is declared with checked(default, check); validate()
        # holds only the rules between fields.
        fields = dataclasses.fields(cls)
        assert [f.name for f in fields if not callable(f.metadata.get("check"))] == []


class TestDerived:
    def test_ns_conversions(self):
        config = CloudExConfig(sequencer_delay_us=250.0, holdrelease_delay_us=800.0)
        assert config.sequencer_delay_ns == 250 * MICROSECOND
        assert config.holdrelease_delay_ns == 800 * MICROSECOND
        assert config.snapshot_interval_ns == 100 * MILLISECOND
        assert config.injected_phase_ns == 6 * SECOND


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_participants": 0},
            {"n_gateways": 0},
            {"n_shards": 0},
            {"n_shards": 20, "n_symbols": 10},
            {"replication_factor": 0},
            {"replication_factor": 17},
            {"straggler_gateways": 17},
            {"clock_sync": "chrony"},
            {"sequencer_delay_us": -1.0},
            {"subscriptions_per_participant": 101},
            {"market_order_fraction": 1.5},
            {"cancel_fraction": -0.1},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            CloudExConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"spike_prob": 1.5}, "spike_prob"),
            ({"straggler_gateways": 1, "straggler_multiplier": 0.5}, "straggler_multiplier"),
            ({"orders_per_participant_per_s": 0.0}, "orders_per_participant_per_s"),
            ({"ddp_inbound_target": 0.01, "ddp_window": 0}, "ddp_window"),
            ({"ddp_outbound_target": 1.5}, "ddp_outbound_target"),
            (
                {"ddp_inbound_target": 0.01, "sequencer_delay_us": DDP_MAX_DELAY_US + 1},
                "DDP_MAX_DELAY_US",
            ),
            ({"injected_delay_phases_us": ()}, "injected_delay_phases_us"),
            (
                {"injected_delay_phases_us": (0.0, 100.0), "injected_phase_seconds": 0.0},
                "injected_phase_seconds",
            ),
            # Built, ran, and silently meant "off", "deterministic" or nonsense:
            ({"snapshot_interval_ms": -5}, "snapshot_interval_ms"),
            ({"straggler_gateways": -1}, "straggler_gateways"),
            ({"injected_delay_phases_us": (-100.0,)}, "injected_delay_phases_us"),
            # Every gap clamped to 1 ns: the run would never advance.
            ({"orders_per_participant_per_s": float("nan")}, "orders_per_participant_per_s"),
            ({"orders_per_participant_per_s": float("inf")}, "orders_per_participant_per_s"),
            # "#" separates a storage row key's parts: A#1's trades sorted
            # inside A's key range and came back as A's history.
            ({"symbols": ["A", "A#1"]}, "symbol 'A#1' contains '#'"),
            # NaN and inf passed every "<" comparison.
            (
                {"straggler_gateways": 1, "straggler_multiplier": math.nan},
                "straggler_multiplier",
            ),
            (
                {"injected_delay_phases_us": (0.0, 100.0), "injected_phase_seconds": math.nan},
                "injected_phase_seconds",
            ),
            ({"ack_retry_backoff": math.inf}, "ack_retry_backoff"),
            ({"dbo_guard_cap_us": math.nan}, "dbo_guard_cap_us"),
            ({"injected_delay_phases_us": (math.nan,)}, "injected_delay_phases_us"),
            # Accepted values that wrapped an int64 inside a draw: every
            # gap 1 ns, the straggler the fastest link, an OverflowError.
            ({"orders_per_participant_per_s": 1e-30}, "orders_per_participant_per_s"),
            (
                {"straggler_gateways": 1, "straggler_multiplier": 1e30},
                "straggler_multiplier",
            ),
            (
                {"injected_delay_phases_us": (0.0, 100.0), "injected_phase_seconds": 1e30},
                "injected_phase_seconds",
            ),
            # The ZI trader draws one roll against both thresholds.
            (
                {"market_order_fraction": 0.7, "cancel_fraction": 0.5},
                "cancel_fraction must be <= 1",
            ),
        ],
    )
    def test_values_the_builder_would_refuse_are_refused_here(self, overrides, named):
        """Each of these built a config and then failed in
        ``CloudExCluster(config)`` / ``add_default_workload()`` -- for a
        sweep, in a worker, after submission had accepted it -- or, from
        the second group on, ran to the end on a value nobody meant."""
        small = dict(
            n_participants=2, n_gateways=2, n_symbols=2, subscriptions_per_participant=1
        )
        CloudExConfig(**small)
        with pytest.raises(ValueError, match=named):
            CloudExConfig(**small, **overrides)

    def test_with_overrides_returns_validated_copy(self):
        config = CloudExConfig()
        other = config.with_overrides(n_shards=4)
        assert other.n_shards == 4
        assert config.n_shards == 1
        with pytest.raises(ValueError):
            config.with_overrides(n_shards=0)


class TestDefaultSymbols:
    def test_count(self):
        assert len(default_symbols(100)) == 100

    def test_unique(self):
        symbols = default_symbols(250)
        assert len(set(symbols)) == 250

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            default_symbols(0)


SMALL = dict(n_participants=2, n_gateways=2, n_symbols=2, subscriptions_per_participant=1)
#: Every numeric field, by its declared type.
NUMERIC = sorted(
    f.name for f in dataclasses.fields(CloudExConfig)
    if f.type in ("int", "float", "Optional[float]")
)
NS_PROPERTIES = sorted(
    name for name, value in vars(CloudExConfig).items()
    if name.endswith("_ns") and isinstance(value, property)
)
DRAWS = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -1, 0, 0.0, 1e30, 1e-30, 2.5])


def _names(message: str, field: str) -> bool:
    # "replication factor 5 must be in ..." names its field in prose.
    return field in message or field.replace("_", " ") in message


def _assert_ns_fit_int64(config: CloudExConfig) -> None:
    for name in NS_PROPERTIES:
        value = getattr(config, name)
        assert value is None or (isinstance(value, int) and -(2**63) <= value < 2**63), name


class TestNumericFuzz:
    """Each numeric field, drawn from the values no hand-written "<" used
    to catch, at the constructor and in a JSON sweep job's ``base``: it is
    refused by a message naming the field, or accepted with every
    ``*_ns`` form an int64.  Nothing drawn here is ever run -- a drawn
    count would size the cluster's allocations."""

    def test_the_fuzz_sees_every_numeric_field_and_ns_form(self):
        assert len(NUMERIC) == 30
        assert NS_PROPERTIES == [
            "ack_timeout_ns", "holdrelease_delay_ns", "injected_phase_ns",
            "ros_dedup_ttl_ns", "sequencer_delay_ns", "snapshot_interval_ns",
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        field=st.sampled_from(NUMERIC),
        value=DRAWS | st.floats() | st.integers(-(2**70), 2**70),
    )
    def test_refused_by_name_or_every_ns_form_fits_int64(self, field, value):
        overrides = {**SMALL, field: value}
        try:
            config = CloudExConfig(**overrides)
        except ValueError as exc:
            assert _names(str(exc), field), str(exc)
        else:
            _assert_ns_fit_int64(config)
        job = {"kind": "sweep", "grid": [{"n_shards": 1}], "base": overrides}
        try:
            spec = normalize_job(job)
        except JobError as exc:
            assert _names(str(exc), field), str(exc)
        else:
            _assert_ns_fit_int64(build_sweep_spec(spec).expand()[0].build_config())


class TestCeilings:
    @pytest.mark.parametrize(
        "job",
        [
            {"kind": "sweep", "grid": [{"n_symbols": MAX_SYMBOLS + 1}]},
            {"kind": "fairness", "n_symbols": MAX_SYMBOLS + 1},
            {"kind": "sweep", "grid": [{"n_shards": 1}], "seeds": MAX_TASKS + 1},
            {"kind": "sweep", "grid": [{"n_shards": 1}], "seeds": list(range(MAX_TASKS + 1))},
            {"kind": "sweep", "grid": [{}, {}], "seeds": MAX_TASKS // 2 + 1},
            {"kind": "fairness", "seeds": MAX_TASKS // 24 + 1},
        ],
        ids=["symbols", "fairness-symbols", "seeds", "seed-list", "points-x-seeds",
             "fairness-cells-x-seeds"],
    )
    def test_a_count_just_above_its_ceiling_is_refused_before_its_list_is_built(self, job):
        # Each would build a list of 10k+ strings, tasks or configs at
        # submission, inside the request handler.
        tracemalloc.start()
        try:
            with pytest.raises(JobError, match=r"must be >= 1 and <= \d+, got|exceeds MAX_TASKS"):
                normalize_job(job)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_every_count_at_its_ceiling_is_accepted(self):
        assert len(CloudExConfig(n_symbols=MAX_SYMBOLS).symbols) == MAX_SYMBOLS
        spec = build_sweep_spec(normalize_job({"kind": "sweep", "grid": [{"n_shards": 1}]}))
        assert len(dataclasses.replace(spec, seeds=MAX_TASKS).expand()) == MAX_TASKS
        widest = [{"n_symbols": MAX_SYMBOLS}] * (MAX_SWEEP_SYMBOLS // MAX_SYMBOLS)
        normalize_job({"kind": "sweep", "grid": widest, "seeds": MAX_TASKS // len(widest)})

    def test_the_widest_grid_is_refused_without_building_every_config(self):
        # MAX_TASKS points at MAX_SYMBOLS symbols: validating each
        # (point, seed) task built 10^8 symbols, ~90 s inside a request
        # handler.  One config per point, counted against
        # MAX_SWEEP_SYMBOLS, refuses it after ~100 configs.
        job = {"kind": "sweep", "grid": [{"n_symbols": MAX_SYMBOLS}] * MAX_TASKS}
        started = time.perf_counter()
        with pytest.raises(JobError, match="MAX_SWEEP_SYMBOLS"):
            normalize_job(job)
        assert time.perf_counter() - started < 20
