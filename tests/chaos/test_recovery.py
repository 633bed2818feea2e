"""Retry/recovery integration: ack timeouts x ROS dedup TTL.

Satellite for the chaos PR: a delayed confirmation makes the participant
retry; the engine's deduplicator must absorb the replica.  With a sane
TTL the retry is deduplicated and the stored confirmation is replayed.
With a pathologically short TTL the winner's entry is swept before the
retry arrives, the replica is re-admitted, and the new
duplicate-execution invariant checker is what catches it.
"""

from repro.chaos import (
    ChaosMonitor,
    FaultSchedule,
    LinkDegradation,
    check_invariants,
)
from repro.core.cluster import CloudExCluster
from repro.core.config import CloudExConfig
from repro.core.types import Side
from repro.sim.timeunits import MILLISECOND


def _run(ttl_s):
    # Confirmations from the engine back to the gateway crawl (+150 ms),
    # so the participant's 50 ms ack timeout fires and it retries.
    # Ingress stays healthy: the engine executes the first copy promptly.
    schedule = FaultSchedule((
        LinkDegradation("engine", "g00", at_s=0.0, duration_s=0.3, extra_us=150_000.0),
    ))
    config = CloudExConfig(
        seed=3,
        n_participants=1,
        n_gateways=1,
        n_symbols=2,
        subscriptions_per_participant=1,
        sequencer_delay_us=500.0,
        spike_prob=0.0,
        persist_trades=False,
        clock_sync="perfect",
        ack_timeout_ms=50.0,
        ack_retry_backoff=1.0,
        ack_max_retries=5,
        ros_dedup_ttl_s=ttl_s,
        chaos=schedule,
    )
    cluster = CloudExCluster(config)
    monitor = ChaosMonitor(cluster)
    participant = cluster.participants[0]
    # A buy at the initial price rests below the seeded ask: the order
    # executes (is admitted and acknowledged) without trading, so a
    # double admission corrupts nothing *except* the dedup invariant.
    cluster.sim.schedule(
        10 * MILLISECOND,
        participant.submit_limit,
        config.symbols[0],
        Side.BUY,
        10,
        config.initial_price,
    )
    cluster.run(duration_s=0.6)
    return cluster, monitor, participant


class TestSaneTtl:
    """Default-order TTL (5 s): retries are absorbed and replayed."""

    def test_retry_deduplicated_and_confirmation_replayed(self):
        cluster, monitor, participant = _run(ttl_s=5.0)
        assert participant.retries_sent >= 1
        assert cluster.metrics.counts()["ros.confirmations_replayed"] >= 1
        # Exactly one admission despite the replicas.
        assert list(monitor.admits.values()) == [1]
        assert participant.confirmations_received >= 1
        assert participant.orders_abandoned == 0
        assert check_invariants(cluster, monitor) == []


class TestShortTtl:
    """TTL shorter than the retry delay: the swept entry lets the
    replica through, and the invariant checker reports it."""

    def test_double_execution_caught_by_checker(self):
        cluster, monitor, participant = _run(ttl_s=0.04)
        assert participant.retries_sent >= 1
        findings = check_invariants(cluster, monitor)
        duplicates = [f for f in findings if f.invariant == "duplicate_execution"]
        assert len(duplicates) == 1
        assert duplicates[0].data["admits"] >= 2
        # The resting order crossed nothing, so every *other* invariant
        # still holds -- the dedup checker is the only witness.
        assert [f.invariant for f in findings] == ["duplicate_execution"]
