#!/usr/bin/env python3
"""Quickstart: stand up a CloudEx exchange, trade, and read the tape.

Builds a small simulated deployment (8 participants, 4 gateways, 10
symbols, Huygens-synchronized clocks), runs two seconds of
zero-intelligence flow, places one manual order through the
participant API, and prints the exchange's fairness/latency report.

Run:  python examples/quickstart.py
"""

from repro import CloudExCluster, CloudExConfig
from repro.core.config import INITIAL_PRICE
from repro.core.types import Side


def main() -> None:
    config = CloudExConfig(
        seed=7,
        n_participants=8,
        n_gateways=4,
        n_symbols=10,
        orders_per_participant_per_s=150.0,
        subscriptions_per_participant=3,
        sequencer_delay_us=400.0,
        holdrelease_delay_us=1000.0,
    )
    cluster = CloudExCluster(config)
    cluster.add_default_workload()

    # Let the market trade for a second...
    cluster.run(duration_s=1.0)

    # ...then act as a participant ourselves: subscribe, lift the best
    # ask with a marketable limit order, and wait for the confirmation.
    me = cluster.participant(0)
    me.subscribe(["SYM000"])
    reference = me.view("SYM000").reference_price or INITIAL_PRICE
    order_id = me.submit_limit("SYM000", Side.BUY, quantity=10, price=reference + 5)
    cluster.run(duration_s=1.0)

    print("My order id:", order_id)
    print("My SYM000 position:", cluster.portfolio.account(me.name).position("SYM000"))
    print("Recent SYM000 trades (from Bigtable):")
    for trade in me.query_trades("SYM000")[-5:]:
        print(
            f"  trade {trade.trade_id}: {trade.quantity} @ {trade.price/100:.2f} "
            f"({trade.buyer} bought from {trade.seller})"
        )

    print("\nExchange report after", cluster.duration_ns() / 1e9, "simulated seconds:")
    for key, value in cluster.metrics.summary().items():
        print(f"  {key:28s} {value:,.4g}")
    if cluster.clock_sync is not None:
        print(f"  gateway clock error p99      {cluster.clock_sync.error_percentile_ns(99):.0f} ns")


if __name__ == "__main__":
    main()
