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

from repro.cliutil import add_json_flag
from repro.exp.cli import CACHE_FIELDS, POOL_FIELDS, run_job_main
from repro.obs.breakdown import policy_comparison_table
from repro.runspec import FIELDS, door_parser


def build_fairness_parser() -> argparse.ArgumentParser:
    parser = door_parser(
        "fairness",
        "Run the fairness-policy frontier study: every selected backend "
        "under identical seeds, clock regimes, and chaos scenarios.",
        FIELDS["fairness"] + POOL_FIELDS + CACHE_FIELDS,
        __doc__.split("Examples\n--------\n", 1)[1],
    )
    add_json_flag(parser, "write the frontier document as JSON")
    return parser


def _show(frontier, args) -> None:
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


def fairness_main(argv=None) -> int:
    return run_job_main("fairness", build_fairness_parser(), argv, _show)
