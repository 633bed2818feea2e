"""Command-line entry point: ``python -m repro [SUBCOMMAND]``.

With no subcommand it runs a small CloudEx deployment with the default
zero-intelligence workload and prints the operator report; ``trace``
runs the same deployment (smaller by default) with per-order lifecycle
tracing and prints the latency breakdown, clock error, ROS attribution
and operational-counter tables, writing the raw traces to a JSONL file.
Every subcommand -- its name, one-line summary and entry point -- is one
row of :data:`SUBCOMMAND_TABLE`, which yields the dispatch, the
``--help`` epilog and :data:`SUBCOMMANDS`; see ``python -m repro
<subcommand> --help`` for each one's options.  ``sweep``, ``fairness``
and ``chaos`` compile their flags into the job spec a served client
submits (:mod:`repro.runspec`).

All subcommands share the exit-code convention in :mod:`repro.cliutil`
(0 = clean, 1 = the run surfaced failures, 2 = usage error) and emit
``--json`` documents in the same canonical shape.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import textwrap
from collections import Counter
from typing import Optional, Tuple

from repro.analysis.report import summarize_run
from repro.cliutil import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, add_json_flag, emit_json, usage_error
from repro.core.cluster import CloudExCluster
from repro.core.config import CloudExConfig, check_positive_finite
from repro.runspec import (
    FIELDS, Field, config_field, door_defaults, door_parser, flag_values, job_from_args,
)

#: The deployment flags ``python -m repro`` and ``trace`` share, at
#: ``CloudExConfig``'s defaults; each door sets its own (smaller) ones.
DEPLOYMENT_FIELDS = (
    config_field(CloudExConfig, "seed", "--seed"),
    config_field(CloudExConfig, "n_participants", "--participants"),
    config_field(CloudExConfig, "n_gateways", "--gateways"),
    config_field(CloudExConfig, "n_shards", "--shards"),
    config_field(CloudExConfig, "n_symbols", "--symbols"),
    Field("duration_s", check_positive_finite, None, "--duration", metavar="SECONDS", type=float),
    config_field(CloudExConfig, "orders_per_participant_per_s", "--rate",
                 "orders/s per participant"),
    config_field(CloudExConfig, "replication_factor", "--rf", "ROS replication factor"),
    config_field(CloudExConfig, "clock_sync", "--clock-sync"),
)

RUN_FIELDS = door_defaults(
    DEPLOYMENT_FIELDS, n_participants=12, n_gateways=4, n_symbols=20, duration_s=2.0,
    orders_per_participant_per_s=200.0,
) + (
    config_field(CloudExConfig, "sequencer_delay_us", "--ds", "sequencer delay d_s (us)"),
    config_field(CloudExConfig, "holdrelease_delay_us", "--dh", "hold/release delay d_h (us)"),
    # One target for both controllers.
    config_field(CloudExConfig, "ddp_inbound_target", "--ddp",
                 "enable DDP with this target unfairness ratio (e.g. 0.01)", metavar="TARGET"),
)

TRACE_FIELDS = door_defaults(
    DEPLOYMENT_FIELDS, n_participants=4, n_gateways=2, n_symbols=4, duration_s=0.5,
    orders_per_participant_per_s=100.0, replication_factor=2,
) + (
    config_field(CloudExConfig, "trace_sample_rate", "--sample-rate",
                 "trace sampling rate in [0, 1]"),
)


def _run_deployment(args, rows: Tuple[Field, ...], **settings) -> Optional[CloudExCluster]:
    """Build the deployment ``rows``' flags (plus config ``settings``) describe
    and run it; None after reporting a config that cannot be built."""
    try:
        values = flag_values(rows, args)
        duration_s = values.pop("duration_s")
        config = CloudExConfig(
            subscriptions_per_participant=min(3, values["n_symbols"]), **values, **settings
        )
    except ValueError as exc:
        usage_error(exc)
        return None
    cluster = CloudExCluster(config)
    cluster.add_default_workload()
    cluster.run(duration_s=duration_s)
    return cluster


def build_parser() -> argparse.ArgumentParser:
    return door_parser(
        "",
        "Run a simulated CloudEx fair-access exchange and print a report.",
        RUN_FIELDS,
        _subcommand_epilog(),
    )


def build_trace_parser() -> argparse.ArgumentParser:
    parser = door_parser(
        "trace",
        "Run a traced CloudEx deployment and print the per-stage "
        "latency breakdown, clock-error, and ROS-attribution tables.",
        TRACE_FIELDS,
    )
    parser.add_argument("--out", default="trace.jsonl", metavar="PATH", help="JSONL trace output path")
    add_json_flag(parser, "also write a deterministic trace-summary document as JSON")
    return parser


def trace_main(argv=None) -> int:
    from repro.analysis.tables import format_table
    from repro.obs.breakdown import breakdown_table, clock_error_table, ros_attribution_table

    args = build_trace_parser().parse_args(argv)
    cluster = _run_deployment(args, TRACE_FIELDS, tracing=True)
    if cluster is None:
        return EXIT_USAGE

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
        emit_json(
            {
                "trace": {"seed": args.seed, "duration_s": args.duration},
                "traces": len(traces),
                "completed": len(completed),
                "spans_by_kind": Counter(span.kind for trace in traces for span in trace.spans),
                "counters": counts,
            },
            args.json,
        )
    return EXIT_OK


def _scenario_lines(indent: str) -> str:
    from repro.chaos import available_scenarios

    return "\n".join(f"{indent}{name:28s}{text}" for name, text in available_scenarios())


def build_chaos_parser() -> argparse.ArgumentParser:
    parser = door_parser(
        "chaos",
        "Run a deterministic fault-injection scenario against a CloudEx "
        "cluster and print the invariant-checked chaos report.",
        FIELDS["chaos"],
        "scenarios:\n" + _scenario_lines("  "),
    )
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    add_json_flag(parser, "emit the report as JSON instead of text")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any invariant was violated",
    )
    return parser


def chaos_main(argv=None) -> int:
    from repro.chaos import run_scenario

    args = build_chaos_parser().parse_args(argv)
    if args.list:
        print(_scenario_lines(""))
        return EXIT_OK
    try:
        job = job_from_args("chaos", args)
    except ValueError as exc:
        return usage_error(exc)
    report = run_scenario(job["scenario"], seed=job["seed"]).report
    if args.json is not None:
        emit_json(report.to_dict(), args.json)
    else:
        print(report.as_text())
    if args.strict and not report.ok:
        return EXIT_FAILURE
    return EXIT_OK


#: Every subcommand as (name, summary, entry point), in help order; an
#: entry point given as "module:function" is imported when it runs.
SUBCOMMAND_TABLE = (
    ("trace", "run with per-order lifecycle tracing and print the "
              "latency/clock/ROS breakdown tables", trace_main),
    ("chaos", "run a deterministic fault-injection scenario and print the "
              "invariant-checked chaos report", chaos_main),
    ("sweep", "run a (config x seed) experiment grid over a parallel worker "
              "pool with caching and deterministic output", "repro.exp.cli:sweep_main"),
    ("fairness", "run the fairness-policy frontier study (cloudex vs dbo vs pfo "
                 "vs noop under identical seeds and chaos)", "repro.fairness.cli:fairness_main"),
    ("shardrun", "run the batched sharded kernel (bulk-generated flow, "
                 "conservative-sync windows, optional --jobs processes with "
                 "byte-identical reports)", "repro.core.shardrun:shardrun_main"),
    ("serve", "run the exchange-as-a-service HTTP control plane: submit "
              "sweep/chaos/fairness jobs, download signed evidence packs",
     "repro.serve.cli:serve_main"),
    ("verify-pack", "verify a downloaded evidence pack offline",
     "repro.serve.cli:verify_pack_main"),
)

#: Every subcommand name, in help order.
SUBCOMMANDS = tuple(name for name, _, _ in SUBCOMMAND_TABLE)


def _subcommand_epilog() -> str:
    lines = ["subcommands:"]
    for name, summary, _ in SUBCOMMAND_TABLE:
        lines += textwrap.wrap(
            summary, 70, initial_indent=f"  {name:13s}", subsequent_indent=" " * 15
        )
    return "\n".join(lines + ["", "see `python -m repro <subcommand> --help` for their options"])


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    entry = {name: entry for name, _, entry in SUBCOMMAND_TABLE}.get(argv[0] if argv else None)
    if isinstance(entry, str):
        module, _, function = entry.partition(":")
        entry = getattr(importlib.import_module(module), function)
    if entry is not None:
        return entry(argv[1:])
    args = build_parser().parse_args(argv)
    cluster = _run_deployment(args, RUN_FIELDS, ddp_outbound_target=args.ddp)
    if cluster is None:
        return EXIT_USAGE
    print(summarize_run(cluster))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
