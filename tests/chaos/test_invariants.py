"""Tests for the chaos invariant checker."""

import pytest

from repro.chaos.invariants import (
    VIOLATION,
    WARNING,
    ChaosMonitor,
    InvariantBounds,
    check_invariants,
)
from repro.chaos.scenarios import OrderPump
from repro.core.cluster import CloudExCluster
from repro.core.config import CloudExConfig


@pytest.fixture(scope="module")
def clean_run():
    """A small faultless run with the monitor installed."""
    config = CloudExConfig(
        seed=9,
        n_participants=2,
        n_gateways=2,
        n_symbols=2,
        subscriptions_per_participant=1,
        sequencer_delay_us=1000.0,
        spike_prob=0.0,
        persist_trades=False,
    )
    cluster = CloudExCluster(config)
    monitor = ChaosMonitor(cluster)
    pump = OrderPump(cluster, rate_per_s=100.0, stop_at_s=0.6)
    pump.start()
    cluster.run(duration_s=1.0)
    return cluster, monitor


def _by_invariant(findings):
    return {finding.invariant: finding for finding in findings}


class TestCleanRun:
    def test_no_findings(self, clean_run):
        cluster, monitor = clean_run
        assert check_invariants(cluster, monitor) == []

    def test_monitor_saw_every_admit_and_fill(self, clean_run):
        cluster, monitor = clean_run
        submitted = sum(p.orders_submitted for p in cluster.participants)
        assert submitted > 0
        assert sum(monitor.admits.values()) == submitted
        assert all(count == 1 for count in monitor.admits.values())
        assert sum(p.trades_received for p in cluster.participants) > 0

    def test_second_monitor_rejected(self, clean_run):
        cluster, _ = clean_run
        with pytest.raises(RuntimeError):
            ChaosMonitor(cluster)


class TestCheckers:
    """Each checker detects its violation when the evidence says so."""

    def test_cash_conservation(self, clean_run):
        cluster, monitor = clean_run
        victim = cluster.portfolio.account(cluster.participants[0].name)
        victim.cash += 123
        try:
            finding = _by_invariant(check_invariants(cluster, monitor))["cash_conservation"]
            assert finding.severity == VIOLATION
            assert finding.data["actual"] - finding.data["expected"] == 123
        finally:
            victim.cash -= 123

    def test_share_conservation(self, clean_run):
        cluster, monitor = clean_run
        symbol = cluster.config.symbols[0]
        victim = cluster.portfolio.account(cluster.participants[0].name)
        victim.adjust(symbol, 7, 0)
        try:
            finding = _by_invariant(check_invariants(cluster, monitor))["share_conservation"]
            assert finding.severity == VIOLATION
            assert finding.data == {"symbol": symbol, "net_shares": 7}
        finally:
            victim.adjust(symbol, -7, 0)

    def test_duplicate_execution(self, clean_run):
        cluster, monitor = clean_run
        key = next(iter(monitor.admits))
        monitor.admits[key] = 2
        try:
            finding = _by_invariant(check_invariants(cluster, monitor))["duplicate_execution"]
            assert finding.severity == VIOLATION
            assert finding.data["admits"] == 2
        finally:
            monitor.admits[key] = 1

    def test_overfill(self, clean_run):
        cluster, monitor = clean_run
        key = next(iter(monitor.admits))
        monitor.fills[key] = monitor.quantities[key] + 1
        try:
            finding = _by_invariant(check_invariants(cluster, monitor))["overfill"]
            assert finding.severity == VIOLATION
        finally:
            del monitor.fills[key]

    def test_operator_seed_fills_not_flagged(self, clean_run):
        cluster, monitor = clean_run
        # Seed liquidity trades without ever being admitted via ingress;
        # a fill with no matching admit record must not count as overfill.
        key = ("operator", 424242)
        monitor.fills[key] = 1_000_000
        try:
            assert check_invariants(cluster, monitor) == []
        finally:
            del monitor.fills[key]

    def test_monotone_release_bound(self, clean_run):
        cluster, monitor = clean_run
        cluster.metrics.out_of_sequence += 3
        try:
            finding = _by_invariant(check_invariants(cluster, monitor))["monotone_release"]
            assert finding.severity == VIOLATION
            # A looser bound absorbs the same evidence.
            relaxed = check_invariants(
                cluster, monitor, InvariantBounds(max_out_of_sequence=3)
            )
            assert relaxed == []
        finally:
            cluster.metrics.out_of_sequence -= 3

    def test_fairness_bound_is_warning(self, clean_run):
        cluster, monitor = clean_run
        findings = check_invariants(
            cluster, monitor, InvariantBounds(max_unfairness_true=-1.0)
        )
        finding = _by_invariant(findings)["bounded_fairness"]
        assert finding.severity == WARNING

    def test_order_loss_classification(self, clean_run):
        cluster, monitor = clean_run
        admitted_key = next(iter(monitor.admits))
        ghost_key = ("p00", 999_999)
        cluster.metrics._submitted[admitted_key] = 0
        cluster.metrics._submitted[ghost_key] = 0
        try:
            findings = _by_invariant(check_invariants(cluster, monitor))
            # Admitted but unconfirmed -> the confirmation was lost, the
            # order itself was not (warning).  Never admitted -> real
            # order loss (violation).
            assert findings["confirmation_loss"].severity == WARNING
            assert findings["confirmation_loss"].data["orders"] == [list(admitted_key)]
            assert findings["order_loss"].severity == VIOLATION
            assert findings["order_loss"].data["orders"] == [list(ghost_key)]
        finally:
            del cluster.metrics._submitted[admitted_key]
            del cluster.metrics._submitted[ghost_key]

    def test_abandoned_orders_surface(self, clean_run):
        cluster, monitor = clean_run
        cluster.participants[0].orders_abandoned += 2
        try:
            finding = _by_invariant(check_invariants(cluster, monitor))["retries_exhausted"]
            assert finding.severity == WARNING
            assert finding.data["orders_abandoned"] == 2
        finally:
            cluster.participants[0].orders_abandoned -= 2

    def test_finding_to_dict(self, clean_run):
        cluster, monitor = clean_run
        cluster.participants[0].orders_abandoned += 1
        try:
            finding = check_invariants(cluster, monitor)[0]
            payload = finding.to_dict()
            assert payload["invariant"] == "retries_exhausted"
            assert set(payload) == {"invariant", "severity", "message", "data"}
        finally:
            cluster.participants[0].orders_abandoned -= 1
