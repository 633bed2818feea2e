"""Tests for configuration validation and derived values."""

import pytest

from repro.core.config import CloudExConfig, default_symbols
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


class TestDerived:
    def test_ns_conversions(self):
        config = CloudExConfig(sequencer_delay_us=250.0, holdrelease_delay_us=800.0)
        assert config.sequencer_delay_ns == 250 * MICROSECOND
        assert config.holdrelease_delay_ns == 800 * MICROSECOND
        assert config.ddp_step_ns == 5 * MICROSECOND
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
            ({"clock_drift_ppb_max": -1}, "clock_drift_ppb_max"),
            ({"clock_offset_ms_max": -1.0}, "clock_offset_ms_max"),
            ({"spike_scale": 1.0}, "spike_scale"),
            ({"spike_prob": 1.5}, "spike_prob"),
            ({"participant_gateway_base_us": 0.0}, "participant_gateway_"),
            ({"gateway_engine_jitter_scale_us": 0.0}, "gateway_engine_"),
            ({"straggler_gateways": 1, "straggler_multiplier": 0.5}, "straggler_multiplier"),
            ({"orders_per_participant_per_s": 0.0}, "orders_per_participant_per_s"),
            ({"halt_threshold": -0.1}, "halt_threshold"),
            ({"halt_threshold": 0.1, "halt_window_ms": 0.0}, "halt_window_ms"),
            ({"ddp_inbound_target": 0.01, "ddp_window": 0}, "ddp_window"),
            ({"ddp_outbound_target": 1.5}, "ddp_outbound_target"),
            ({"ddp_inbound_target": 0.01, "sequencer_delay_us": 6000.0}, "ddp_max_delay_us"),
            ({"injected_delay_phases_us": ()}, "injected_delay_phases_us"),
            (
                {"injected_delay_phases_us": (0.0, 100.0), "injected_phase_seconds": 0.0},
                "injected_phase_seconds",
            ),
            ({"sync_interval_ms": 0.0}, "sync_interval_ms"),
            ({"book_service_us": -1.0}, "book_service_us"),
            ({"ingress_service_us": -1.0}, "ingress_service_us"),
            # Built, ran, and silently meant "off", "deterministic" or nonsense:
            ({"initial_price": 0}, "initial_price"),
            ({"initial_price": 3, "initial_book_depth": 5}, "initial_book_depth"),
            ({"snapshot_interval_ms": -5}, "snapshot_interval_ms"),
            ({"initial_book_depth": -1}, "initial_book_depth"),
            ({"initial_book_qty": 0}, "initial_book_qty"),
            ({"initial_book_qty": -5}, "initial_book_qty"),
            ({"snapshot_depth": -1}, "snapshot_depth"),
            ({"sync_warm_start_rounds": -1}, "sync_warm_start_rounds"),
            ({"straggler_gateways": -1}, "straggler_gateways"),
            ({"book_service_cv": -0.5}, "book_service_cv"),
            ({"lock_service_cv": -1}, "lock_service_cv"),
            ({"initial_cash": -1}, "initial_cash"),
            ({"injected_delay_phases_us": (-100.0,)}, "injected_delay_phases_us"),
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
