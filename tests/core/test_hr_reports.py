"""Where a gateway's H/R report goes.

With an outbound DDP controller the report is a ``HoldReleaseReport``
delivered to the engine, which feeds the collector and DDP.  Without one
the collector is its only reader, so the gateway hands it over at send
(``Gateway.settle_reports_into``): the report still takes its link draw,
and only its delivery event goes.
"""

import pytest

from repro.core.cluster import CloudExCluster
from repro.core.messages import HoldReleaseReport, StampedOrder
from repro.core.metrics import MetricsCollector
from repro.core.types import Side
from tests.conftest import small_config

#: The ``result_payload`` fields a report counted at send may move: the
#: event count, and the md accounting of reports in flight at a window
#: edge (teardown or the warm-up reset).
SETTLE_FIELDS = {
    "events_processed", "md_finalized_at_end", "md_pieces_partial",
    "md_pieces_unreported", "mean_releasing_delay_us", "outbound_unfairness",
}


def network_sink(cluster):
    """Put every gateway back on the network sink: reports are delivered."""
    for gateway in cluster.gateways:
        gateway.hr_buffer.report = gateway._send_report
    return cluster


def spy_engine(cluster):
    """Record every message the engine handles, as ``(now, msg)``."""
    seen = []
    on_message = cluster.exchange.on_message

    def spy(msg, sender):
        seen.append((cluster.sim.now, msg))
        on_message(msg, sender)

    cluster.exchange.on_message = spy
    return seen


def one_trade(cluster, via=0):
    """Cross the seeded ask once; settle every piece it publishes."""
    cluster.participant(via).submit_limit("SYM000", Side.BUY, 5, 10_100)
    cluster.run(duration_s=0.1)
    handled = sum(g.hr_buffer.held_count for g in cluster.gateways)
    assert handled > 0 and handled % len(cluster.gateways) == 0
    return handled


class TestWiring:
    # No snapshot ticks: the trade's pieces are the only market data.
    def build(self, monkeypatch, **overrides):
        recorded = []
        record = MetricsCollector.record_md_report

        def counting(self, seq, late, hold_ns):
            recorded.append(seq)
            return record(self, seq, late, hold_ns)

        monkeypatch.setattr(MetricsCollector, "record_md_report", counting)
        cluster = CloudExCluster(small_config(snapshot_interval_ms=0.0, **overrides))
        return cluster, spy_engine(cluster), recorded

    def test_outbound_ddp_gets_one_report_delivery_per_handled_piece(self, monkeypatch):
        cluster, seen, recorded = self.build(monkeypatch, ddp_outbound_target=0.01)
        handled = one_trade(cluster)
        reports = [msg for _, msg in seen if isinstance(msg, HoldReleaseReport)]
        assert len(reports) == len(recorded) == handled
        assert len({(r.gateway_id, r.md_seq) for r in reports}) == handled

    def test_no_outbound_ddp_records_at_the_gateway_and_delivers_none(self, monkeypatch):
        cluster, seen, recorded = self.build(monkeypatch)
        handled = one_trade(cluster)
        assert not [msg for _, msg in seen if isinstance(msg, HoldReleaseReport)]
        assert len(recorded) == handled
        assert cluster.metrics.md_pieces_finalized == handled // len(cluster.gateways)


class TestDifferential:
    """Settling at the gateway moves no order, trade or draw."""

    def run(self, deliver_reports):
        cluster = CloudExCluster(small_config(seed=7))
        if deliver_reports:
            network_sink(cluster)
        seen = spy_engine(cluster)
        cluster.measured_run(warmup_s=0.05, duration_s=0.25)
        arrivals = [
            (now, msg.order.participant_id, msg.order.client_order_id, msg.order.gateway_id)
            for now, msg in seen if isinstance(msg, StampedOrder)
        ]
        return arrivals, cluster.result_payload()

    def test_only_the_settle_fields_move(self):
        arrivals, payload = self.run(deliver_reports=False)
        arrivals_net, payload_net = self.run(deliver_reports=True)
        assert arrivals and arrivals == arrivals_net
        assert payload.keys() == payload_net.keys()
        moved = {k for k in payload if payload[k] != payload_net[k]}
        assert moved <= SETTLE_FIELDS
        assert payload["events_processed"] < payload_net["events_processed"]


@pytest.mark.parametrize("deliver_reports", [False, True], ids=["settled", "delivered"])
def test_partitioned_report_link_records_nothing(deliver_reports):
    cluster = CloudExCluster(small_config(snapshot_interval_ms=0.0))
    if deliver_reports:
        network_sink(cluster)
    link = cluster.network.link("g00", "engine")
    link.block()
    handled = one_trade(cluster, via=1)  # p01's primary gateway is g01
    pieces = handled // len(cluster.gateways)
    assert link.dropped_partitioned == pieces
    assert cluster.metrics.md_pieces_finalized == 0
    assert cluster.finalize_metrics() == pieces
    assert cluster.metrics.md_pieces_partial == pieces
    assert cluster.metrics.md_pieces_unreported == 0
