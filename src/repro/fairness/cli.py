"""``python -m repro fairness``: the four-policy frontier study.

Runs the selected fairness backends head-to-head across clock regimes
and chaos scenarios under identical derived seeds, printing the
per-cell comparison table and the per-policy frontier, and optionally
writing the deterministic frontier document as JSON.

Examples
--------
The full default study (4 policies x 2 clock regimes x 3 scenarios)::

    python -m repro fairness --policies cloudex,dbo,pfo,noop --json frontier.json

A quick storm-only comparison on two workers::

    python -m repro fairness --clocks huygens --scenarios latency_storm \
        --participants 4 --gateways 2 --symbols 4 --rate 120 \
        --warmup 0.2 --duration 0.4 --jobs 2 --json -

The JSON is byte-identical for any ``--jobs`` value; re-running an
unchanged study answers entirely from ``.repro-cache/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.cliutil import EXIT_FAILURE, EXIT_OK, add_json_flag, emit_json, usage_error
from repro.exp.cache import DEFAULT_CACHE_DIR, DEFAULT_MAX_BYTES, ResultCache
from repro.fairness.base import POLICY_NAMES
from repro.fairness.study import (
    DEFAULT_CLOCKS,
    SCENARIOS,
    build_fairness_spec,
    run_fairness_study,
)
from repro.obs.breakdown import policy_comparison_table
from repro.sim.worker import check_jobs


def _parse_list(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def build_fairness_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fairness",
        description=(
            "Run the fairness-policy frontier study: every selected backend "
            "under identical seeds, clock regimes, and chaos scenarios."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("Examples\n--------\n", 1)[1],
    )
    parser.add_argument(
        "--policies",
        default=",".join(POLICY_NAMES),
        metavar="P1,P2,...",
        help=f"fairness backends to compare (default: all of {','.join(POLICY_NAMES)})",
    )
    parser.add_argument(
        "--clocks",
        default=",".join(DEFAULT_CLOCKS),
        metavar="C1,C2,...",
        help="clock-sync regimes (huygens/ntp/none/perfect; default huygens,none)",
    )
    parser.add_argument(
        "--scenarios",
        default=",".join(SCENARIOS),
        metavar="S1,S2,...",
        help=f"chaos scenarios (default: all of {','.join(SCENARIOS)})",
    )
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="replicate seeds per cell (default 1)")
    parser.add_argument("--master-seed", type=int, default=0)
    parser.add_argument("--name", default="fairness", help="label recorded in the JSON")
    parser.add_argument("--participants", type=int, default=8)
    parser.add_argument("--gateways", type=int, default=4)
    parser.add_argument("--symbols", type=int, default=10)
    parser.add_argument("--rate", type=float, default=300.0,
                        help="orders/s per participant (default 300)")
    parser.add_argument("--warmup", type=float, default=0.3, metavar="SECONDS")
    parser.add_argument("--duration", type=float, default=0.8, metavar="SECONDS")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-task timeout (jobs > 1 only)")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts per failed task")
    add_json_flag(parser, "write the frontier document as JSON")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and don't write .repro-cache/")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument(
        "--cache-max-mb",
        type=int,
        default=DEFAULT_MAX_BYTES // (1024 * 1024),
        metavar="MB",
        help="size bound for the result cache (default 512)",
    )
    return parser


def fairness_main(argv=None) -> int:
    args = build_fairness_parser().parse_args(argv)
    try:
        spec, labels = build_fairness_spec(
            policies=_parse_list(args.policies),
            clocks=_parse_list(args.clocks),
            scenarios=_parse_list(args.scenarios),
            seeds=args.seeds,
            master_seed=args.master_seed,
            n_participants=args.participants,
            n_gateways=args.gateways,
            n_symbols=args.symbols,
            rate_per_participant=args.rate,
            warmup_s=args.warmup,
            duration_s=args.duration,
            name=args.name,
        )
        spec.validate()
        check_jobs(args.jobs)
        cache = None if args.no_cache else ResultCache(
            args.cache_dir, max_bytes=args.cache_max_mb * 1024 * 1024
        )
    except (TypeError, ValueError) as exc:
        return usage_error(exc)

    frontier, outcome = run_fairness_study(
        spec,
        labels,
        jobs=args.jobs,
        cache=cache,
        timeout_s=args.timeout,
        retries=args.retries,
    )

    rows = [
        (
            f"{c['policy']}/{c['clock_sync']}/{c['scenario']}/{c['replicate']}",
            c["metrics"],
        )
        for c in frontier["cells"]
        if c["metrics"] is not None
    ]
    if rows:
        print(policy_comparison_table(rows))
    print()
    frontier_rows = [
        (
            policy,
            {
                "inbound_unfairness_true": stats["unfairness_true_mean"],
                "outbound_unfairness": stats["outbound_unfairness_mean"],
                "hr_late_ratio": stats["hr_late_ratio_mean"],
                "e2e_p50_us": stats["e2e_p50_us_mean"],
                "e2e_p99_us": stats["e2e_p99_us_mean"],
                "events_per_order": stats["events_per_order_mean"],
            },
        )
        for policy, stats in frontier["frontier"].items()
    ]
    print(policy_comparison_table(frontier_rows))
    for key, value in sorted(frontier["dominance"].items()):
        print(f"{key}: {value}", file=sys.stderr)
    print(
        f"\ncells: {outcome.executed} executed, {outcome.from_cache} cached, "
        f"{len(outcome.failures)} failed; jobs={args.jobs}; "
        f"wall {outcome.wall_s:.1f}s",
        file=sys.stderr,
    )
    for key, error in outcome.failures:
        print(f"\nFAILED {key}\n{error}", file=sys.stderr)

    if args.json is not None:
        emit_json(frontier, args.json)
        if args.json != "-":
            print(f"wrote {args.json}", file=sys.stderr)
    return EXIT_OK if outcome.ok else EXIT_FAILURE
