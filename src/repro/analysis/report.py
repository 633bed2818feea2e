"""Human-readable run reports.

``summarize_run`` turns a finished cluster into the operator's
at-a-glance report: throughput, the fairness ratios and their delay
costs, latency percentiles, CPU usage, and clock-sync health.
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import format_table
from repro.core.cluster import CloudExCluster
from repro.sim.timeunits import SECOND


def summarize_run(cluster: CloudExCluster) -> str:
    """A multi-section plain-text report for one cluster run."""
    m = cluster.metrics
    config = cluster.config
    duration_s = cluster.duration_ns() / SECOND
    submission = m.submission_summary()
    e2e = m.e2e_summary()
    cpu = cluster.cpu_report()

    sections: List[str] = []
    sections.append(
        f"CloudEx run: {config.n_participants} participants, "
        f"{config.n_gateways} gateways, {config.n_shards} shard(s), "
        f"{config.n_symbols} symbols, RF={config.replication_factor}, "
        f"{duration_s:.2f} s simulated"
    )

    sections.append(
        format_table(
            ["volume", "count"],
            [
                ["orders matched", f"{m.orders_matched:,.0f}"],
                ["trades executed", f"{m.trades_executed:,.0f}"],
                ["replicas received", f"{m.replicas_received:,.0f}"],
                ["duplicates dropped", f"{m.windowed('ros.duplicates_dropped'):,.0f}"],
                ["rejects", f"{m.rejects:,.0f}"],
                ["throughput", f"{m.throughput_per_s():,.0f} orders/s"],
            ],
        )
    )

    sections.append(
        format_table(
            ["latency", "p50 (us)", "p99 (us)", "p99.9 (us)"],
            [
                ["submission", f"{submission.p50_us:.0f}", f"{submission.p99_us:.0f}",
                 f"{submission.p999_us:.0f}"],
                ["end-to-end", f"{e2e.p50_us:.0f}", f"{e2e.p99_us:.0f}", f"{e2e.p999_us:.0f}"],
            ],
        )
    )

    d_s_us = cluster.exchange.current_sequencer_delay_ns() / 1_000
    d_h_us = cluster.exchange.d_h / 1_000
    sections.append(
        format_table(
            ["fairness", "ratio", "delay cost"],
            [
                [
                    "inbound (orders)",
                    f"{m.inbound_unfairness_ratio():.3%}",
                    f"d_s={d_s_us:.0f}us, queuing {m.mean_queuing_delay_us():.0f}us avg",
                ],
                [
                    "outbound (market data)",
                    f"{m.outbound_unfairness_ratio():.3%}",
                    f"d_h={d_h_us:.0f}us, releasing {m.mean_releasing_delay_us():.0f}us avg",
                ],
            ],
        )
    )

    clock_line = "clock sync: disabled"
    if cluster.clock_sync is not None:
        try:
            p99 = cluster.clock_sync.error_percentile_ns(99)
            clock_line = f"clock sync ({config.clock_sync}): gateway offset p99 = {p99:,.0f} ns"
        except ValueError:
            clock_line = f"clock sync ({config.clock_sync}): no samples yet"
    sections.append(clock_line)

    sections.append(
        format_table(
            ["vm type", "avg cores"],
            [
                ["matching engine", f"{cpu['engine_cores']:.1f}"],
                ["gateway", f"{cpu['gateway_cores']:.2f}"],
                ["participant", f"{cpu['participant_cores']:.2f}"],
            ],
        )
    )

    return "\n\n".join(sections)
