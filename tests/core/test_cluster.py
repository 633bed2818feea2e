"""Tests for the cluster builder and runner."""

import pytest

from repro.core.cluster import CloudExCluster, gateway_name, participant_name
from repro.core.config import INITIAL_PRICE, CloudExConfig
from repro.core.types import Side
from tests.conftest import small_config


class TestConstruction:
    def test_topology_counts(self, small_cluster):
        config = small_cluster.config
        assert len(small_cluster.participants) == config.n_participants
        assert len(small_cluster.gateways) == config.n_gateways
        assert len(small_cluster.exchange.shards) == config.n_shards
        # engine + gateways + participants
        assert len(small_cluster.network.hosts) == 1 + config.n_gateways + config.n_participants

    def test_books_seeded_two_sided(self, small_cluster):
        for symbol in small_cluster.config.symbols:
            shard = small_cluster.exchange.shards[small_cluster.router.shard_of(symbol)]
            book = shard.core.books[symbol]
            assert book.best_bid() == INITIAL_PRICE - 1
            assert book.best_ask() == INITIAL_PRICE + 1

    def test_every_participant_has_account_and_token(self, small_cluster):
        for participant in small_cluster.participants:
            assert small_cluster.portfolio.has_account(participant.name)
            assert small_cluster.auth.verify(participant.name, participant.auth_token)

    def test_replica_gateways_distinct_and_primary_first(self):
        cluster = CloudExCluster(small_config(replication_factor=3))
        gateways = cluster.replica_gateways(1)
        assert gateways[0] == gateway_name(1 % cluster.config.n_gateways)
        assert len(set(gateways)) == 3

    def test_engine_clock_is_reference(self, small_cluster):
        assert small_cluster.engine_host.clock.drift_ppb == 0
        assert small_cluster.engine_host.clock.offset_ns == 0

    def test_gateway_clocks_are_wrong_before_sync(self):
        cluster = CloudExCluster(small_config(clock_sync="none"))
        errors = [abs(h.clock.error_ns()) for h in cluster.gateway_hosts]
        assert max(errors) > 10_000  # boot offsets are ms-scale

    def test_straggler_assignment(self):
        cluster = CloudExCluster(small_config(straggler_gateways=1))
        assert not cluster.is_straggler(0)
        assert cluster.is_straggler(cluster.config.n_gateways - 1)


class TestClockSyncModes:
    def test_perfect_mode_has_no_service(self):
        cluster = CloudExCluster(small_config(clock_sync="perfect"))
        assert cluster.clock_sync is None
        assert all(h.clock.error_ns() == 0 for h in cluster.gateway_hosts)

    def test_none_mode_has_no_service(self):
        cluster = CloudExCluster(small_config(clock_sync="none"))
        assert cluster.clock_sync is None

    def test_huygens_mode_syncs_gateways(self):
        cluster = CloudExCluster(small_config(clock_sync="huygens"))
        cluster.run(duration_s=0.1)
        for host in cluster.gateway_hosts:
            assert abs(host.clock.error_ns()) < 100_000  # ms-offsets corrected

    def test_ntp_mode_leaves_ms_errors(self):
        cluster = CloudExCluster(small_config(clock_sync="ntp"))
        cluster.run(duration_s=0.1)
        errors = [abs(h.clock.error_ns()) for h in cluster.gateway_hosts]
        assert max(errors) > 500_000  # still off by >= 0.5 ms


class TestRun:
    def test_run_accumulates_time(self, small_cluster):
        small_cluster.run(duration_s=0.1)
        assert small_cluster.sim.now == 100_000_000
        small_cluster.run(duration_s=0.1)
        assert small_cluster.sim.now == 200_000_000

    def test_duration_must_be_positive_and_finite(self, small_cluster):
        for duration in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="duration_s must be positive and finite"):
                small_cluster.run(duration_s=duration)
        assert small_cluster.sim.now == 0
        small_cluster.run(duration_s=0.1)
        assert small_cluster.sim.now == 100_000_000

    def test_default_workload_generates_flow(self, small_cluster):
        small_cluster.run(duration_s=0.5)
        metrics = small_cluster.metrics
        assert metrics.orders_matched > 100
        assert metrics.trades_executed > 0
        assert len(metrics.submission_latencies_ns) > 100

    def test_determinism_same_seed(self):
        def run_once():
            cluster = CloudExCluster(small_config(seed=77))
            cluster.add_default_workload()
            cluster.run(duration_s=0.3)
            return cluster.metrics.summary()

        assert run_once() == run_once()

    def test_different_seeds_differ(self):
        def run_once(seed):
            cluster = CloudExCluster(small_config(seed=seed))
            cluster.add_default_workload()
            cluster.run(duration_s=0.3)
            return cluster.metrics.summary()

        assert run_once(1) != run_once(2)

    def test_reset_metrics_starts_fresh_window(self, small_cluster):
        small_cluster.run(duration_s=0.2)
        before = small_cluster.metrics.orders_matched
        assert before > 0
        small_cluster.reset_metrics()
        assert small_cluster.metrics.orders_matched == 0
        small_cluster.run(duration_s=0.2)
        assert 0 < small_cluster.metrics.orders_matched

    def test_cpu_report_keys(self, small_cluster):
        small_cluster.run(duration_s=0.2)
        report = small_cluster.cpu_report()
        assert set(report) == {"engine_cores", "gateway_cores", "participant_cores"}
        assert report["gateway_cores"] > 0

    def test_result_payload_is_idempotent(self):
        # The Table-1 recipe stops with pieces in flight; closing them
        # is counted once, and a second call reads the same total.
        cluster = CloudExCluster(CloudExConfig(
            seed=2021, n_participants=48, n_gateways=16, n_symbols=100, n_shards=4,
            orders_per_participant_per_s=1700.0, replication_factor=1,
            cancel_fraction=0.0, clock_sync="huygens",
        ))
        cluster.add_default_workload()
        cluster.run(duration_s=0.02)
        first = cluster.result_payload()
        assert first["md_finalized_at_end"] > 0
        assert cluster.result_payload() == first
        cluster.reset_metrics()
        assert cluster.result_payload()["md_finalized_at_end"] == 0


class TestNames:
    def test_name_helpers(self):
        assert gateway_name(3) == "g03"
        assert participant_name(12) == "p12"
