#!/usr/bin/env python3
"""A 'production-config' exchange: risk, STP, halts, surveillance (paper §6).

The paper's discussion section argues that regulated equity venues can
move to the cloud by pairing fair-access infrastructure with the usual
regulatory controls.  This example turns them all on:

- pre-trade risk limits (position and notional caps),
- self-trade prevention,
- price-band circuit breakers (a pattern bot pumps one symbol until it
  halts),
- the per-order lifecycle tracer, read afterwards together with the
  trade tape to reconstruct an order's complete lifecycle the way a
  surveillance team would.

Run:  python examples/regulated_exchange.py
"""

from repro import CloudExCluster, CloudExConfig
from repro.obs import tracing
from repro.traders import PatternBotStrategy, TradingAgent, ZeroIntelligenceStrategy, trend_target

PUMPED = "SYM000"


def main() -> None:
    config = CloudExConfig(
        seed=41,
        n_participants=10,
        n_gateways=4,
        n_symbols=6,
        subscriptions_per_participant=3,
        # Regulatory controls:
        risk_max_position=5_000,
        risk_max_order_notional=500_000_00,  # $500k per order
        self_trade_prevention=True,
        halt_threshold=0.03,
        halt_window_ms=500.0,
        halt_duration_ms=400.0,
        tracing=True,
    )
    cluster = CloudExCluster(config)

    # Participant 0 pumps one symbol hard; everyone else trades noise.
    agents = [
        TradingAgent(
            cluster.sim,
            cluster.participant(0),
            PatternBotStrategy(PUMPED, trend_target(config.initial_price, 2_500.0), quantity=80),
            rate_per_s=400.0,
            rng=cluster.rngs.stream("pump"),
        )
    ]
    for participant in cluster.participants[1:]:
        agents.append(
            TradingAgent(
                cluster.sim,
                participant,
                ZeroIntelligenceStrategy(
                    [PUMPED, "SYM001", "SYM002"], fallback_price=config.initial_price
                ),
                rate_per_s=150.0,
                rng=cluster.rngs.stream(f"zi:{participant.name}"),
            )
        )
    for agent in agents:
        agent.start()

    cluster.run(duration_s=3.0)

    m = cluster.metrics
    breaker = cluster.exchange.circuit_breaker
    print(f"Orders processed: {m.orders_matched:,.0f}; trades: {m.trades_executed:,.0f}; "
          f"rejects: {m.rejects:,.0f}")
    shard = cluster.exchange.shards[cluster.router.shard_of(PUMPED)]
    print(f"Risk rejects: {shard.core.risk_rejects}, "
          f"halt rejects: {shard.core.halt_rejects}, "
          f"STP cancels: {shard.core.stp_cancellations}")

    print(f"\nCircuit breaker tripped {len(breaker.halts)} time(s) on {PUMPED}:")
    for halt in breaker.halts[:5]:
        move = (halt.trip_price - halt.reference_price) / halt.reference_price
        print(
            f"  t={halt.tripped_at/1e6:8.1f} ms  {halt.reference_price/100:.2f} -> "
            f"{halt.trip_price/100:.2f} ({move:+.1%}), halted "
            f"{(halt.resumes_at - halt.tripped_at)/1e6:.0f} ms"
        )

    # Surveillance: reconstruct one pumped order's lifecycle from the
    # tracer (stamped inbound path, match status) and the trade tape.
    pumper = cluster.participant(0).name
    tape = cluster.history.trades(PUMPED)
    target = next(
        (t.buy_client_order_id for t in tape if t.buyer == pumper and t.aggressor_is_buy), None
    )
    fills = [t for t in tape if (t.buyer, t.buy_client_order_id) == (pumper, target)]
    trace = cluster.tracer.get(pumper, target)
    print(f"\nOrders traced: {len(cluster.tracer.traces):,}; "
          f"trades on the tape for {PUMPED}: {len(tape):,}")
    if trace is not None and trace.completed:
        submit, stamped, _, released, match, confirm = trace.chain()
        steps = [
            (submit, "submitted"),
            (stamped, f"stamped by gateway {stamped.host}"),
            (released, "released by the sequencer"),
            (match, f"matched: {match.detail}"),
            (confirm, "confirmation delivered"),
        ] + [(span, f"client cancel {span.detail}") for span in trace.spans_of(tracing.CANCEL)]
        print(f"\nReconstruction of {pumper}'s order {target} (true ms / host-clock ms):")
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
