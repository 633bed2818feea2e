"""Fault-injection integration tests: crashes, restarts, clock steps."""

from repro.core.cluster import CloudExCluster
from repro.core.types import Side
from tests.conftest import small_config


class TestGatewayRestart:
    def test_trading_resumes_after_restart(self):
        cluster = CloudExCluster(small_config(clock_sync="perfect"))
        participant = cluster.participant(0)
        gateway = participant.primary_gateway

        participant.submit_limit("SYM000", Side.BUY, 5, 10_100)
        cluster.run(duration_s=0.2)
        assert participant.trades_received == 1

        cluster.network.host(gateway).crash()
        participant.submit_limit("SYM000", Side.BUY, 5, 10_100)
        cluster.run(duration_s=0.2)
        assert participant.trades_received == 1  # lost while down

        cluster.network.host(gateway).restart()
        participant.submit_limit("SYM000", Side.BUY, 5, 10_100)
        cluster.run(duration_s=0.2)
        assert participant.trades_received == 2  # flowing again

    def test_md_pieces_to_down_gateway_never_finalize(self):
        cluster = CloudExCluster(small_config(clock_sync="perfect"))
        cluster.network.host("g02").crash()
        cluster.participant(0).submit_limit("SYM000", Side.BUY, 5, 10_100)
        cluster.run(duration_s=0.3)
        # The trade's md piece expected 3 gateway reports; one gateway
        # is down, so the piece stays unfinalized (and is not counted
        # either fair or unfair).
        assert cluster.metrics.md_pieces_finalized == 0
        assert cluster.network.host("g02").dropped_while_down > 0

    def test_messages_dropped_is_window_relative(self):
        # Crash g01 for 50 ms inside a 0.2 s warm-up, reset, then run a
        # clean 0.2 s window: the warm-up's drops are not the window's.
        cluster = CloudExCluster(small_config())
        cluster.add_default_workload()
        victim = cluster.network.host("g01")
        cluster.sim.schedule(50_000_000, victim.crash)
        cluster.sim.schedule(100_000_000, victim.restart)
        cluster.run(duration_s=0.2)
        warmup_drops = cluster.metrics.summary()["messages_dropped"]
        assert warmup_drops == victim.dropped_while_down > 0
        cluster.reset_metrics()
        assert cluster.metrics.messages_dropped() == 0
        cluster.run(duration_s=0.2)
        assert cluster.metrics.summary()["messages_dropped"] == 0.0
        # The named count itself stays cumulative.
        assert cluster.metrics.counts()["net.dropped_while_down"] == warmup_drops
        # And a window that does see drops reports only its own.
        victim.crash()
        cluster.run(duration_s=0.05)
        in_window = victim.dropped_while_down - warmup_drops
        assert cluster.metrics.summary()["messages_dropped"] == in_window > 0

    def test_crashed_gateway_clock_not_probed(self):
        cluster = CloudExCluster(small_config(clock_sync="huygens"))
        cluster.run(duration_s=0.1)
        victim = cluster.gateway_hosts[0]
        samples_before = len(cluster.clock_sync._state[victim.name].error_samples_ns)
        victim.crash()
        cluster.run(duration_s=0.2)
        assert len(cluster.clock_sync._state[victim.name].error_samples_ns) == samples_before


class TestClockStepFault:
    def test_sync_recovers_from_clock_step(self):
        """A gateway clock suddenly steps by 1 ms (VM migration, NTP
        kick); the next Huygens rounds pull it back to the ns regime."""
        cluster = CloudExCluster(small_config(clock_sync="huygens"))
        cluster.run(duration_s=0.5)
        victim = cluster.gateway_hosts[1]
        assert abs(victim.clock.error_ns()) < 10_000

        victim.clock.offset_ns += 1_000_000  # the fault
        stepped_error = abs(victim.clock.error_ns())
        assert stepped_error > 900_000

        cluster.run(duration_s=3.0)  # several sync rounds
        recovered_error = abs(victim.clock.error_ns())
        assert recovered_error < 50_000
        assert recovered_error < stepped_error / 10

    def test_unfairness_spikes_then_recovers_with_step(self):
        cluster = CloudExCluster(
            small_config(clock_sync="huygens", sequencer_delay_us=300.0, seed=9)
        )
        cluster.add_default_workload(rate_per_participant=300.0)
        cluster.run(duration_s=1.0)
        cluster.reset_metrics()
        # Step one gateway's clock far beyond d_s: its orders now carry
        # timestamps ~1 ms in the past -> ground-truth unfairness.
        cluster.gateway_hosts[0].clock.offset_ns += 1_500_000
        cluster.run(duration_s=0.7)
        during = cluster.metrics.inbound_unfairness_ratio_true()

        cluster.run(duration_s=2.5)  # sync re-learns the offset
        cluster.reset_metrics()
        cluster.run(duration_s=1.0)
        after = cluster.metrics.inbound_unfairness_ratio_true()
        assert during > 0.01
        assert after < during / 2
