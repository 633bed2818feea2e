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
        "field, value",
        [
            ("risk_max_position", 100),
            ("risk_max_order_notional", 1),
            ("self_trade_prevention", True),
            ("halt_threshold", 0.05),
            ("audit_trail", True),
        ],
    )
    def test_batch_mode_refuses_safeguards_it_never_consults(self, field, value):
        CloudExConfig(**{field: value})  # fine under continuous matching
        with pytest.raises(ValueError, match=field):
            CloudExConfig(matching_mode="batch", **{field: value})

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
