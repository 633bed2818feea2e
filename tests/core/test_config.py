"""Tests for configuration validation and derived values."""

import dataclasses

import pytest

from repro.core.config import DDP_MAX_DELAY_US, CloudExConfig, default_symbols
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
