"""Tests for the chaos scenario library -- including the PR's two
acceptance scenarios: gateway crash with RF=2 + failover must yield zero
invariant violations; the same crash with RF=1 must *report* order loss
rather than lose orders silently."""

import pytest

from repro.chaos import available_scenarios, run_scenario


@pytest.fixture(scope="module")
def rf2_result():
    return run_scenario("gateway-crash-rf2-failover", seed=11)


@pytest.fixture(scope="module")
def rf1_result():
    return run_scenario("gateway-crash-rf1", seed=11)


class TestLibrary:
    def test_listing_names_and_descriptions(self):
        scenarios = available_scenarios()
        names = [name for name, _ in scenarios]
        assert names == sorted(names)
        assert "smoke" in names
        assert "gateway-crash-rf2-failover" in names
        assert "gateway-crash-rf1" in names
        assert all(description for _, description in scenarios)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="smoke"):
            run_scenario("no-such-scenario")

    def test_smoke_scenario_passes(self):
        result = run_scenario("smoke", seed=11)
        assert result.report.ok
        assert result.report.stats["gateway_restarts"] == 1
        assert result.report.stats["trades_received"] > 0


@pytest.mark.parametrize("name", [name for name, _ in available_scenarios()])
def test_every_scenario_leaves_sound_books(name):
    # Whatever else a fault costs, the books it leaves pass the one
    # book checker: uncrossed, depth equal to the resting remainders,
    # every resting order indexed once.
    findings = run_scenario(name, seed=11).report.findings
    assert [f for f in findings if f.invariant == "book_integrity"] == []


class TestAcceptance:
    def test_rf2_failover_survives_gateway_crash(self, rf2_result):
        report = rf2_result.report
        # The fault actually bit: timeouts fired and the participant
        # failed over to a live gateway...
        assert report.stats["retries_sent"] > 0
        assert report.stats["failovers"] > 0
        # ...and yet every order was confirmed and every invariant held.
        assert report.stats["orders_submitted"] == report.stats["confirmations_received"]
        assert report.stats["unconfirmed_orders"] == 0
        assert report.violations == []
        assert report.ok

    def test_rf1_reports_order_loss_not_silence(self, rf1_result):
        report = rf1_result.report
        assert not report.ok
        assert report.stats["unconfirmed_orders"] > 0
        losses = [f for f in report.findings if f.invariant == "order_loss"]
        assert len(losses) == 1
        assert len(losses[0].data["orders"]) == report.stats["unconfirmed_orders"]

    def test_reports_are_bit_for_bit_reproducible(self, rf2_result, rf1_result):
        assert (
            run_scenario("gateway-crash-rf2-failover", seed=11).report.to_json()
            == rf2_result.report.to_json()
        )
        assert (
            run_scenario("gateway-crash-rf1", seed=11).report.to_json()
            == rf1_result.report.to_json()
        )

    def test_different_seed_different_run(self, rf2_result):
        other = run_scenario("gateway-crash-rf2-failover", seed=12)
        assert other.report.to_json() != rf2_result.report.to_json()
        assert other.report.ok  # resilience is not seed luck

    def test_report_serialization_shape(self, rf2_result):
        payload = rf2_result.report.to_dict()
        assert payload["scenario"] == "gateway-crash-rf2-failover"
        assert payload["seed"] == 11
        assert payload["ok"] is True
        assert payload["violations"] == 0
        assert isinstance(payload["schedule"], list) and payload["schedule"]
        assert isinstance(payload["injected"], list) and payload["injected"]
        text = rf2_result.report.as_text()
        assert "OK" in text and "gateway-crash-rf2-failover" in text
