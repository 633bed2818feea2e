#!/usr/bin/env python3
"""A 'production-config' exchange: STP and order reconstruction (paper §6).

The paper's discussion section argues that regulated equity venues can
move to the cloud by pairing fair-access infrastructure with the usual
regulatory controls.  This example runs zero-intelligence flow with

- self-trade prevention, and
- the per-order lifecycle tracer, read afterwards together with the
  trade tape to reconstruct an order's complete lifecycle the way a
  surveillance team would.

Run:  python examples/regulated_exchange.py
"""

from repro import CloudExCluster, CloudExConfig
from repro.obs import tracing


def main() -> None:
    config = CloudExConfig(
        seed=41,
        n_participants=10,
        n_gateways=4,
        n_symbols=6,
        subscriptions_per_participant=3,
        orders_per_participant_per_s=150.0,
        self_trade_prevention=True,
        tracing=True,
    )
    cluster = CloudExCluster(config)
    cluster.add_default_workload()
    cluster.run(duration_s=3.0)

    m = cluster.metrics
    print(f"Orders processed: {m.orders_matched:,.0f}; trades: {m.trades_executed:,.0f}; "
          f"rejects: {m.rejects:,.0f}")
    stp = sum(shard.core.stp_cancellations for shard in cluster.exchange.shards)
    print(f"STP cancels: {stp}")

    # Surveillance: reconstruct one aggressive buy's lifecycle from the
    # tracer (stamped inbound path, match status) and the trade tape.
    buyer = cluster.participant(0).name
    symbol, target = next(
        (symbol, t.buy_client_order_id)
        for symbol in config.symbols
        for t in cluster.history.trades(symbol)
        if t.buyer == buyer and t.aggressor_is_buy
    )
    tape = cluster.history.trades(symbol)
    fills = [t for t in tape if (t.buyer, t.buy_client_order_id) == (buyer, target)]
    trace = cluster.tracer.get(buyer, target)
    print(f"\nOrders traced: {len(cluster.tracer.traces):,}; "
          f"trades on the tape for {symbol}: {len(tape):,}")
    if trace is not None and trace.completed:
        submit, stamped, _, released, match, confirm = trace.chain()
        steps = [
            (submit, "submitted"),
            (stamped, f"stamped by gateway {stamped.host}"),
            (released, "released by the sequencer"),
            (match, f"matched: {match.detail}"),
            (confirm, "confirmation delivered"),
        ] + [(span, f"client cancel {span.detail}") for span in trace.spans_of(tracing.CANCEL)]
        print(f"\nReconstruction of {buyer}'s order {target} (true ms / host-clock ms):")
        for span, what in sorted(steps, key=lambda step: step[0].t_true):
            print(f"  {span.t_true/1e6:10.3f} {span.t_local/1e6:10.3f}  {what}")
            if span is match:
                for trade in fills:
                    print(f"  {'':10s} {trade.executed_local/1e6:10.3f}    fill: trade "
                          f"{trade.trade_id}, {trade.quantity} @ {trade.price/100:.2f} "
                          f"from {trade.seller}")
        print(f"  lifecycle well-formed: {trace.lifecycle_is_wellformed()}")


if __name__ == "__main__":
    main()
