"""Where a gateway's H/R report goes.

With an outbound DDP controller a gateway queues each report triple
``(md_seq, late, hold_ns)`` and sends the queue to the engine as one
``HoldReleaseReport`` once ``HR_REPORT_BATCH`` are pending, or
``HR_REPORT_WAIT_US`` after the first was queued; the engine feeds the
triples, in order, to the collector and DDP.  Without one the report is
a measurement, not traffic: ``Gateway.settle_reports_into`` records it
at arrival and the gateway->engine links carry orders and cancels only.
"""

from collections import Counter

from repro.core.cluster import CloudExCluster
from repro.core.config import HR_REPORT_BATCH, HR_REPORT_WAIT_US
from repro.core.messages import HoldReleaseReport, StampedCancel, StampedOrder
from repro.core.metrics import MetricsCollector
from repro.core.types import Side
from repro.sim.network import Link
from repro.sim.timeunits import MICROSECOND
from tests.conftest import small_config

#: The ``result_payload`` fields that read the reports: the md accounting.
SETTLE_FIELDS = {
    "md_finalized_at_end", "md_pieces_partial", "md_pieces_unreported",
    "mean_releasing_delay_us", "outbound_unfairness",
}


def spy_engine(cluster):
    """Record every message the engine handles, as ``(now, msg)``."""
    seen = []
    on_message = cluster.exchange.on_message

    def spy(msg, sender):
        seen.append((cluster.sim.now, msg))
        on_message(msg, sender)

    cluster.exchange.on_message = spy
    return seen


def spy_reports(cluster):
    """Per gateway: every triple its buffer reported, as ``(now, triple)``,
    and every batch it sent, as ``(now, batch)``."""
    queued = {g.name: [] for g in cluster.gateways}
    sent = {g.name: [] for g in cluster.gateways}
    for g in cluster.gateways:
        report, send = g.hr_buffer.report, g._to_engine.send

        def spy_report(md_seq, late, hold_ns, _log=queued[g.name], _report=report):
            _log.append((cluster.sim.now, (md_seq, late, hold_ns)))
            _report(md_seq, late, hold_ns)

        def spy_send(msg, _log=sent[g.name], _send=send):
            if isinstance(msg, HoldReleaseReport):
                _log.append((cluster.sim.now, msg.reports))
            _send(msg)

        g.hr_buffer.report = spy_report
        g._to_engine.send = spy_send
    return queued, sent


def received_batches(seen):
    """Per gateway: the batches the engine handled, as ``(now, triples)``."""
    out = {}
    for now, msg in seen:
        if isinstance(msg, HoldReleaseReport):
            out.setdefault(msg.gateway_id, []).append((now, msg.reports))
    return out


def one_trade(cluster, via=0):
    """Cross the seeded ask once; settle every piece it publishes.
    Returns how many pieces the gateways handled in all."""
    before = sum(g.hr_buffer.held_count for g in cluster.gateways)
    cluster.participant(via).submit_limit("SYM000", Side.BUY, 5, 10_100)
    cluster.run(duration_s=0.1)
    handled = sum(g.hr_buffer.held_count for g in cluster.gateways) - before
    assert handled > 0 and handled % len(cluster.gateways) == 0
    return handled


def ddp_cluster(**overrides):
    """Outbound DDP, no snapshot ticks: trades publish the only market data."""
    return CloudExCluster(
        small_config(snapshot_interval_ms=0.0, ddp_outbound_target=0.01, **overrides)
    )


class TestWiring:
    def test_no_outbound_ddp_records_at_the_gateway_and_delivers_none(self, monkeypatch):
        recorded, prepared = [], Counter()
        record, prepare = MetricsCollector.record_md_report, Link.prepare

        def counting_record(self, seq, late, hold_ns):
            recorded.append(seq)
            return record(self, seq, late, hold_ns)

        def counting_prepare(self, payload):
            if self.dst.name == "engine":
                prepared[type(payload)] += 1
            return prepare(self, payload)

        monkeypatch.setattr(MetricsCollector, "record_md_report", counting_record)
        monkeypatch.setattr(Link, "prepare", counting_prepare)
        cluster = CloudExCluster(small_config(cancel_fraction=0.2))
        cluster.add_default_workload()
        seen = spy_engine(cluster)
        cluster.run(duration_s=0.2)
        assert set(prepared) == {StampedOrder, StampedCancel}
        assert not [msg for _, msg in seen if isinstance(msg, HoldReleaseReport)]
        handled = sum(g.hr_buffer.held_count for g in cluster.gateways)
        assert handled > 0 and len(recorded) == handled
        assert set(Counter(recorded).values()) == {len(cluster.gateways)}

    def test_outbound_ddp_gets_every_triple_once_in_batches(self):
        # 20 symbols: each book-snapshot tick publishes more than a batch.
        cluster = CloudExCluster(small_config(n_symbols=20, ddp_outbound_target=0.01))
        cluster.add_default_workload()
        queued, sent = spy_reports(cluster)
        seen = spy_engine(cluster)
        cluster.run(duration_s=0.3)
        received = received_batches(seen)
        sizes = Counter()
        for g in cluster.gateways:
            batches = [batch for _, batch in sent[g.name]]
            sizes.update(len(batch) for batch in batches)
            # Every triple the buffer reported was sent once, in arrival
            # order, or is still queued at the gateway.
            flat = [triple for batch in batches for triple in batch]
            assert flat + g._reports == [triple for _, triple in queued[g.name]]
            # The engine handled a prefix of the batches, in send order;
            # the rest are in flight.
            got = [batch for _, batch in received.get(g.name, [])]
            assert got == batches[: len(got)] and len(got) >= len(batches) - 1
        assert max(sizes) == HR_REPORT_BATCH and min(sizes) < HR_REPORT_BATCH

    def test_a_lone_piece_is_reported_within_the_wait_plus_one_link_delay(self):
        # One trade's pieces never fill a batch: the wait timer sends them.
        cluster = ddp_cluster()
        queued, sent = spy_reports(cluster)
        seen = spy_engine(cluster)
        handled = one_trade(cluster)
        assert handled // len(cluster.gateways) < HR_REPORT_BATCH
        wait_ns = int(HR_REPORT_WAIT_US * MICROSECOND)
        received = received_batches(seen)
        for g in cluster.gateways:
            (sent_at, batch), = sent[g.name]
            (received_at, got), = received[g.name]
            assert got == batch == tuple(triple for _, triple in queued[g.name])
            assert sent_at == queued[g.name][0][0] + wait_ns < received_at
        assert cluster.metrics.md_pieces_finalized == handled // len(cluster.gateways)


class TestDifferential:
    """Recording reports at the gateway moves no order, trade, draw or event."""

    def run(self, report):
        cluster = CloudExCluster(small_config(seed=7))
        if not report:
            for gateway in cluster.gateways:
                gateway.hr_buffer.report = None
        seen = spy_engine(cluster)
        cluster.measured_run(warmup_s=0.05, duration_s=0.25)
        arrivals = [
            (now, msg.order.participant_id, msg.order.client_order_id, msg.order.gateway_id)
            for now, msg in seen if isinstance(msg, StampedOrder)
        ]
        return arrivals, cluster.result_payload()

    def test_only_the_settle_fields_move(self):
        arrivals, payload = self.run(report=True)
        arrivals_off, payload_off = self.run(report=False)
        assert arrivals and arrivals == arrivals_off
        assert payload.keys() == payload_off.keys()
        moved = {k for k in payload if payload[k] != payload_off[k]}
        assert moved and moved <= SETTLE_FIELDS
        assert payload["events_processed"] == payload_off["events_processed"]


def test_partitioned_report_link_records_nothing():
    cluster = ddp_cluster()
    _, sent = spy_reports(cluster)
    link = cluster.network.link("g00", "engine")
    link.block()
    handled = one_trade(cluster, via=1)  # p01's primary gateway is g01
    pieces = handled // len(cluster.gateways)
    # g00's one batch was dropped on the link, and nothing else.
    assert link.dropped_partitioned == len(sent["g00"]) == 1
    assert cluster.metrics.open_md_pieces() == pieces
    assert cluster.metrics.md_pieces_finalized == 0
    # Healed, the next trade's reports arrive from every gateway.
    link.unblock()
    assert one_trade(cluster, via=1) == handled
    assert cluster.metrics.md_pieces_finalized == pieces
    assert cluster.finalize_metrics() == pieces
    assert cluster.metrics.md_pieces_partial == pieces
    assert cluster.metrics.md_pieces_unreported == 0


def test_a_crashed_gateway_drops_its_pending_batch_and_nothing_else():
    cluster = ddp_cluster()
    g00 = cluster.gateways[0]
    cluster.participant(1).submit_limit("SYM000", Side.BUY, 5, 10_100)
    while not g00._reports:
        assert cluster.sim.step()
    lost = {md_seq for md_seq, _, _ in g00._reports}
    g00.host.crash()
    cluster.run(duration_s=0.02)  # the wait timer fires while g00 is down
    assert g00.host.dropped_sends_while_down == 1 and not g00._reports
    g00.host.restart()
    g00.rejoin()
    # g00 missed the pieces it was queueing and those sent to it while down.
    missed = len(lost) + g00.host.dropped_while_down
    assert cluster.metrics.open_md_pieces() == missed
    assert cluster.metrics.md_pieces_finalized == 0
    handled = one_trade(cluster, via=1)
    assert cluster.metrics.md_pieces_finalized == handled // len(cluster.gateways)
    assert cluster.metrics.open_md_pieces() == missed


def test_settled_reports_ignore_a_partitioned_link():
    cluster = CloudExCluster(small_config(snapshot_interval_ms=0.0))
    link = cluster.network.link("g00", "engine")
    link.block()
    handled = one_trade(cluster, via=1)
    assert link.dropped_partitioned == 0
    assert cluster.metrics.md_pieces_finalized == handled // len(cluster.gateways)
    assert cluster.finalize_metrics() == 0
