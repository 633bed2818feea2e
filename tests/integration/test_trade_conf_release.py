"""Fig. 2 step 7: trade confirmations are held to the release time.

A counterparty must not learn of its execution before the market-wide
release of the corresponding trade record -- otherwise fills leak
information ahead of the market data.
"""

from repro.core.cluster import CloudExCluster
from repro.core.types import Side
from tests.conftest import record_deliveries, small_config


class TradeTimeSpy:
    """When (true time) the participant handles its fills and the
    public trade records."""

    def __init__(self, cluster, participant):
        self.trade_conf_true_times = record_deliveries(
            participant, "trade", lambda tc: cluster.sim.now
        )
        self._md = record_deliveries(
            participant, "market_data", lambda d: (d.piece.kind, cluster.sim.now)
        )

    @property
    def md_trade_true_times(self):
        return [now for kind, now in self._md if kind == "trade"]


class TestTradeConfirmationRelease:
    def test_fill_not_known_before_release_time(self):
        cluster = CloudExCluster(
            small_config(clock_sync="perfect", holdrelease_delay_us=3_000.0)
        )
        buyer = cluster.participant(0)
        spy = TradeTimeSpy(cluster, buyer)
        buyer.subscribe(["SYM000"])
        cluster.run(duration_s=0.01)

        submit_true = cluster.sim.now
        buyer.submit_limit("SYM000", Side.BUY, 5, 10_100)
        cluster.run(duration_s=0.05)

        assert spy.trade_conf_true_times, "the order should have traded"
        conf_time = spy.trade_conf_true_times[0]
        # The fill cannot arrive before execution + d_h (release time);
        # execution happens after submission + network + d_s.
        d_s = cluster.config.sequencer_delay_ns
        d_h = cluster.config.holdrelease_delay_ns
        assert conf_time >= submit_true + d_s + d_h

    def test_fill_and_market_data_arrive_together(self):
        """With synchronized clocks, the counterparty's fill and the
        public trade record release at the same instant (+- transit to
        the participant)."""
        cluster = CloudExCluster(
            small_config(clock_sync="perfect", holdrelease_delay_us=3_000.0)
        )
        buyer = cluster.participant(0)
        spy = TradeTimeSpy(cluster, buyer)
        buyer.subscribe(["SYM000"])
        cluster.run(duration_s=0.01)
        buyer.submit_limit("SYM000", Side.BUY, 5, 10_100)
        cluster.run(duration_s=0.05)

        assert spy.trade_conf_true_times and spy.md_trade_true_times
        gap = abs(spy.trade_conf_true_times[0] - spy.md_trade_true_times[0])
        # Released at the same local instant; both then ride a
        # gateway->participant hop, so the gap is one transit jitter.
        assert gap < 400_000  # < 0.4 ms

    def test_order_confirmations_not_held(self):
        """Fig. 2 step 5: the order ack comes back promptly, well
        before the trade confirmation's release time."""
        cluster = CloudExCluster(
            small_config(clock_sync="perfect", holdrelease_delay_us=5_000.0)
        )
        buyer = cluster.participant(0)
        conf_times = record_deliveries(buyer, "confirmation", lambda conf: cluster.sim.now)
        start = cluster.sim.now
        buyer.submit_limit("SYM000", Side.BUY, 5, 10_100)
        cluster.run(duration_s=0.05)
        assert conf_times
        # Ack round trip is ~1-2 ms; far below d_s + d_h + transit.
        assert conf_times[0] - start < cluster.config.holdrelease_delay_ns + 2_000_000
