#!/usr/bin/env python3
"""The historical market-data API over the Bigtable substrate.

Paper §2.1: trade records are persisted to (a stand-in for) Google
Bigtable, and participants are "provided an API to query historical
market data".  This example runs a trading session with snapshot
persistence enabled, then answers the kinds of questions a
participant's research notebook would ask: trade tape slices, traded
volume, VWAP, and book-depth history.

Run:  python examples/historical_data.py
"""

from repro import CloudExCluster, CloudExConfig
from repro.sim.timeunits import SECOND


def main() -> None:
    config = CloudExConfig(
        seed=5,
        n_participants=10,
        n_gateways=4,
        n_symbols=6,
        orders_per_participant_per_s=250.0,
        subscriptions_per_participant=3,
        persist_trades=True,
        persist_snapshots=True,
        snapshot_interval_ms=100.0,
    )
    cluster = CloudExCluster(config)
    cluster.add_default_workload()
    cluster.run(duration_s=3.0)

    me = cluster.participant(0)
    symbol = "SYM000"
    history = cluster.history

    print(f"Storage: {cluster.trade_table.row_count():,} rows")

    tape = me.query_trades(symbol)
    print(f"\n{symbol}: {len(tape)} trades total; the last five:")
    for trade in tape[-5:]:
        print(
            f"  t={trade.executed_local/1e6:8.2f} ms  {trade.quantity:4d} @ "
            f"{trade.price/100:7.2f}  ({'buy' if trade.aggressor_is_buy else 'sell'} aggressor)"
        )

    # Windowed analytics straight off the row-key design.
    for start_s, end_s in ((0, 1), (1, 2), (2, 3)):
        window = (start_s * SECOND, end_s * SECOND)
        volume = history.volume_traded(symbol, *window)
        vwap = history.vwap(symbol, *window)
        vwap_str = f"{vwap/100:7.2f}" if vwap is not None else "    n/a"
        print(f"  window {start_s}-{end_s}s: volume {volume:6d} shares, VWAP {vwap_str}")

    snapshots = history.snapshots(symbol)
    print(f"\n{len(snapshots)} book snapshots persisted; spread over time:")
    for snapshot in snapshots[:: max(1, len(snapshots) // 6)]:
        print(
            f"  t={snapshot.taken_local/1e6:8.2f} ms  "
            f"bid {snapshot.best_bid/100:7.2f} / ask {snapshot.best_ask/100:7.2f} "
            f"(spread {snapshot.spread} ticks)"
        )


if __name__ == "__main__":
    main()
