"""Tests for the operational counts a cluster names and the dispatch profiler."""

from repro.chaos import FaultSchedule, HostCrash
from repro.core.cluster import CloudExCluster
from repro.obs import DispatchProfiler
from repro.sim.engine import Simulator
from tests.conftest import small_config

CLUSTER_COUNTS = [
    "ddp.inbound_adjustments",
    "ddp.outbound_adjustments",
    "engine.shard0.queue_depth",
    "engine.shard1.queue_depth",
    "hr.late_pieces",
    "net.dropped_partitioned",
    "net.dropped_while_down",
    "ros.confirmations_replayed",
    "ros.duplicates_dropped",
]
CHAOS_COUNTS = [
    "chaos.clock_steps",
    "chaos.crashes",
    "chaos.link_faults",
    "chaos.partitions",
    "chaos.restarts",
]


class TestClusterCounts:
    def test_names_without_a_fault_schedule(self):
        counts = CloudExCluster(small_config(n_shards=2)).metrics.counts()
        assert list(counts) == CLUSTER_COUNTS
        assert set(counts.values()) == {0.0}

    def test_chaos_names_only_with_a_fault_schedule(self):
        schedule = FaultSchedule((HostCrash("g00", at_s=0.01, duration_s=0.01),))
        cluster = CloudExCluster(small_config(n_shards=2, chaos=schedule))
        assert list(cluster.metrics.counts()) == CHAOS_COUNTS + CLUSTER_COUNTS
        cluster.run(duration_s=0.05)
        counts = cluster.metrics.counts()
        assert counts["chaos.crashes"] == counts["chaos.restarts"] == 1.0

    def test_queue_depth_reads_the_live_backlog(self):
        cluster = CloudExCluster(small_config())
        cluster.add_default_workload()
        shard = cluster.exchange.shards[0]
        for _ in range(200):  # step until an order sits in the sequencer
            cluster.run(duration_s=0.0005)
            if shard.backlog_size():
                break
        depth = cluster.metrics.counts()["engine.shard0.queue_depth"]
        assert depth == shard.backlog_size() > 0


class TestDispatchProfiler:
    def test_counts_simulator_events(self):
        sim = Simulator()
        profiler = DispatchProfiler()
        sim.dispatch_hook = profiler
        hits = []

        def tick():
            hits.append(sim.now)

        for delay in (10, 20, 30):
            sim.schedule(delay, tick)
        sim.run()
        assert hits == [10, 20, 30]
        assert profiler.total == 3
        [(name, count, share)] = profiler.top()
        assert "tick" in name
        assert count == 3
        assert share == 1.0
        assert "tick" in profiler.as_table()
