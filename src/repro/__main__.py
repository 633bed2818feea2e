"""Command-line demo: ``python -m repro``.

Runs a small CloudEx deployment with the default zero-intelligence
workload and prints the operator report.  Flags tune the interesting
knobs; see ``python -m repro --help``.

``python -m repro trace`` runs the same deployment with per-order
lifecycle tracing enabled and prints the latency breakdown, clock
error, ROS attribution, and operational-counter tables, writing the
raw traces to a JSONL file; see ``python -m repro trace --help``.

``python -m repro chaos`` runs a deterministic fault-injection
scenario (gateway crashes, latency storms, partitions, clock steps)
and prints the chaos report with its invariant findings; see
``python -m repro chaos --help``.

``python -m repro sweep`` runs a (config x seed) experiment grid over
a parallel worker pool with deterministic aggregation and on-disk
result caching; see ``python -m repro sweep --help``.

``python -m repro fairness`` runs the fairness-policy frontier study:
the cloudex/dbo/pfo/noop backends head-to-head across clock regimes
and chaos scenarios under identical seeds, emitting a deterministic
frontier document; see ``python -m repro fairness --help``.

``python -m repro shardrun`` runs the batched sharded kernel: bulk
numpy order generation, batched matching, and conservative-sync
windows across optional worker processes whose reports are
byte-identical to the inline run; see ``python -m repro shardrun
--help``.

``python -m repro serve`` runs the exchange-as-a-service control
plane: an authenticated HTTP API that accepts sweep/chaos/fairness job
submissions, executes them on the experiment pool, and serves signed
evidence packs; see ``python -m repro serve --help``.

``python -m repro verify-pack`` verifies a downloaded evidence pack
offline; see ``python -m repro verify-pack --help``.

All subcommands share the exit-code convention in :mod:`repro.cliutil`
(0 = clean, 1 = the run surfaced failures, 2 = usage error) and emit
``--json`` documents in the same canonical shape.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import summarize_run
from repro.cliutil import EXIT_OK, add_json_flag, emit_json, usage_error
from repro.core.cluster import CloudExCluster
from repro.core.config import CloudExConfig

#: Every subcommand, in help order.  ``python -m repro --help`` lists
#: exactly these; the CLI test suite pins the list.
SUBCOMMANDS = ("trace", "chaos", "sweep", "fairness", "shardrun", "serve", "verify-pack")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a simulated CloudEx fair-access exchange and print a report.",
        epilog=(
            "subcommands:\n"
            "  trace        run with per-order lifecycle tracing and print the\n"
            "               latency/clock/ROS breakdown tables\n"
            "  chaos        run a deterministic fault-injection scenario and\n"
            "               print the invariant-checked chaos report\n"
            "  sweep        run a (config x seed) experiment grid over a parallel\n"
            "               worker pool with caching and deterministic output\n"
            "  fairness     run the fairness-policy frontier study (cloudex vs\n"
            "               dbo vs pfo vs noop under identical seeds and chaos)\n"
            "  shardrun     run the batched sharded kernel (bulk-generated flow,\n"
            "               conservative-sync windows, optional --jobs processes\n"
            "               with byte-identical reports)\n"
            "  serve        run the exchange-as-a-service HTTP control plane:\n"
            "               submit sweep/chaos/fairness jobs, download signed\n"
            "               evidence packs\n"
            "  verify-pack  verify a downloaded evidence pack offline\n"
            "\n"
            "see `python -m repro <subcommand> --help` for their options"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--participants", type=int, default=12)
    parser.add_argument("--gateways", type=int, default=4)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--symbols", type=int, default=20)
    parser.add_argument("--duration", type=float, default=2.0, metavar="SECONDS")
    parser.add_argument("--rate", type=float, default=200.0, help="orders/s per participant")
    parser.add_argument("--rf", type=int, default=1, help="ROS replication factor")
    parser.add_argument("--ds", type=float, default=500.0, help="sequencer delay d_s (us)")
    parser.add_argument("--dh", type=float, default=1000.0, help="hold/release delay d_h (us)")
    parser.add_argument(
        "--ddp",
        type=float,
        default=None,
        metavar="TARGET",
        help="enable DDP with this target unfairness ratio (e.g. 0.01)",
    )
    parser.add_argument(
        "--clock-sync",
        choices=["huygens", "ntp", "none", "perfect"],
        default="huygens",
    )
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Run a traced CloudEx deployment and print the per-stage "
            "latency breakdown, clock-error, and ROS-attribution tables."
        ),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--participants", type=int, default=4)
    parser.add_argument("--gateways", type=int, default=2)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--symbols", type=int, default=4)
    parser.add_argument("--duration", type=float, default=0.5, metavar="SECONDS")
    parser.add_argument("--rate", type=float, default=100.0, help="orders/s per participant")
    parser.add_argument("--rf", type=int, default=2, help="ROS replication factor")
    parser.add_argument("--sample-rate", type=float, default=1.0, help="trace sampling rate in [0, 1]")
    parser.add_argument("--out", default="trace.jsonl", metavar="PATH", help="JSONL trace output path")
    parser.add_argument(
        "--clock-sync",
        choices=["huygens", "ntp", "none", "perfect"],
        default="huygens",
    )
    add_json_flag(parser, "also write a deterministic trace-summary document as JSON")
    return parser


def trace_main(argv=None) -> int:
    from repro.analysis.tables import format_table
    from repro.obs.breakdown import breakdown_table, clock_error_table, ros_attribution_table

    args = build_trace_parser().parse_args(argv)
    try:
        config = CloudExConfig(
            seed=args.seed,
            n_participants=args.participants,
            n_gateways=args.gateways,
            n_shards=args.shards,
            n_symbols=args.symbols,
            replication_factor=args.rf,
            clock_sync=args.clock_sync,
            orders_per_participant_per_s=args.rate,
            subscriptions_per_participant=min(3, args.symbols),
            tracing=True,
            trace_sample_rate=args.sample_rate,
        )
    except ValueError as exc:
        return usage_error(exc)
    cluster = CloudExCluster(config)
    cluster.add_default_workload()
    cluster.run(duration_s=args.duration)

    tracer = cluster.tracer
    assert tracer is not None
    traces = tracer.all_traces()
    completed = tracer.completed_traces()
    print(f"traces: {len(traces)} sampled, {len(completed)} completed\n")
    print("Latency breakdown (true time; stages telescope to end_to_end)")
    print(breakdown_table(completed))
    print("\nClock error by span (synced clock vs. true time)")
    print(clock_error_table(traces))
    print("\nROS critical-path attribution")
    print(ros_attribution_table(completed))
    print("\nOperational counters")
    counts = cluster.metrics.counts()
    print(format_table(
        ["instrument", "value"], [[name, f"{value:,.1f}"] for name, value in counts.items()]
    ))
    if cluster.profiler is not None:
        print("\nEvent-loop dispatch profile")
        print(cluster.profiler.as_table())
    emitted = {s.name: c for s, c in cluster.events.counts_by_severity.items() if c}
    if emitted:
        summary = ", ".join(f"{name}={count}" for name, count in sorted(emitted.items()))
        print(f"\nevent log: {summary} (dropped={cluster.events.dropped})")
    tracer.dump_jsonl(args.out)
    print(f"\nwrote {len(traces)} traces to {args.out}")
    if args.json is not None:
        spans_by_kind: dict = {}
        for trace in traces:
            for span in trace.spans:
                spans_by_kind[span.kind] = spans_by_kind.get(span.kind, 0) + 1
        emit_json(
            {
                "trace": {"seed": args.seed, "duration_s": args.duration},
                "traces": len(traces),
                "completed": len(completed),
                "spans_by_kind": spans_by_kind,
                "counters": counts,
            },
            args.json,
        )
    return EXIT_OK


def build_chaos_parser() -> argparse.ArgumentParser:
    from repro.chaos import available_scenarios

    scenario_lines = "\n".join(
        f"  {name:28s}{description}" for name, description in available_scenarios()
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description=(
            "Run a deterministic fault-injection scenario against a CloudEx "
            "cluster and print the invariant-checked chaos report."
        ),
        epilog=f"scenarios:\n{scenario_lines}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scenario",
        default="smoke",
        metavar="NAME",
        help="scenario to run (see list below; default: smoke)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    add_json_flag(parser, "emit the report as JSON instead of text")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any invariant was violated",
    )
    return parser


def chaos_main(argv=None) -> int:
    from repro.chaos import available_scenarios, run_scenario, scenario_spec
    from repro.cliutil import EXIT_FAILURE

    args = build_chaos_parser().parse_args(argv)
    if args.list:
        for name, description in available_scenarios():
            print(f"{name:28s}{description}")
        return EXIT_OK
    try:
        scenario_spec(args.scenario)
    except ValueError as exc:
        return usage_error(exc)
    result = run_scenario(args.scenario, seed=args.seed)
    report = result.report
    if args.json is not None:
        emit_json(report.to_dict(), args.json)
    else:
        print(report.as_text())
    if args.strict and not report.ok:
        return EXIT_FAILURE
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        name, rest = argv[0], argv[1:]
        if name == "trace":
            return trace_main(rest)
        if name == "chaos":
            return chaos_main(rest)
        if name == "sweep":
            from repro.exp.cli import sweep_main

            return sweep_main(rest)
        if name == "fairness":
            from repro.fairness.cli import fairness_main

            return fairness_main(rest)
        if name == "shardrun":
            from repro.core.shardrun import shardrun_main

            return shardrun_main(rest)
        if name == "serve":
            from repro.serve.cli import serve_main

            return serve_main(rest)
        from repro.serve.cli import verify_pack_main

        return verify_pack_main(rest)
    args = build_parser().parse_args(argv)
    try:
        config = CloudExConfig(
            seed=args.seed,
            n_participants=args.participants,
            n_gateways=args.gateways,
            n_shards=args.shards,
            n_symbols=args.symbols,
            replication_factor=args.rf,
            sequencer_delay_us=args.ds,
            holdrelease_delay_us=args.dh,
            ddp_inbound_target=args.ddp,
            ddp_outbound_target=args.ddp,
            clock_sync=args.clock_sync,
            orders_per_participant_per_s=args.rate,
            subscriptions_per_participant=min(3, args.symbols),
        )
    except ValueError as exc:
        return usage_error(exc)
    cluster = CloudExCluster(config)
    cluster.add_default_workload()
    cluster.run(duration_s=args.duration)
    print(summarize_run(cluster))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
