#!/usr/bin/env python3
"""The latency-fairness trade-off, hands on (paper §2.2, Figs. 4-5).

Sweeps the static sequencer delay d_s, then runs DDP at two target
unfairness ratios, and prints the resulting trade-off table -- a
miniature of Fig. 4a you can explore interactively by editing the
sweep values.  A third phase swaps the whole fairness *mechanism*
(:mod:`repro.fairness`): cloudex vs DBO vs PFO vs no-op under one seed,
the design-space comparison the paper's fixed architecture couldn't
make.

All phases run through the sweep harness (:mod:`repro.exp`): declare
a grid, get parallel fan-out, crash tolerance, and on-disk result
caching for free -- re-running this script recomputes nothing unless
you change a sweep value (or the simulator itself).

Run:  python examples/fairness_lab.py [--jobs N]
"""

import argparse

from repro.analysis.tables import format_table
from repro.exp import ResultCache, SweepSpec, WorkerPool, run_sweep
from repro.fairness.study import run_fairness_study
from repro.obs.breakdown import policy_comparison_table
from repro.runspec import build_fairness_study, normalize_job

SWEEP_DS_US = [0.0, 200.0, 400.0, 700.0, 1000.0]
DDP_TARGETS = [0.01, 0.03]

#: The small lab cluster both phases share.
BASE = dict(
    n_participants=16,
    n_gateways=8,
    n_symbols=20,
    orders_per_participant_per_s=400.0,
    subscriptions_per_participant=2,
    holdrelease_delay_us=1200.0,
)


def lab(pool: WorkerPool, cache: ResultCache) -> None:
    print("Static sweep of d_s...")
    static = run_sweep(
        SweepSpec(
            name="fairness-lab-static",
            grid=[{"sequencer_delay_us": d_s} for d_s in SWEEP_DS_US],
            seeds=[21],
            base=BASE,
            warmup_s=0.5,
            duration_s=1.5,
        ),
        pool,
        cache,
    )
    assert static.ok, static.failures

    print("DDP runs...")
    ddp = run_sweep(
        SweepSpec(
            name="fairness-lab-ddp",
            grid=[
                {"sequencer_delay_us": 300.0, "ddp_inbound_target": target}
                for target in DDP_TARGETS
            ],
            seeds=[21],
            base=BASE,
            warmup_s=2.0,  # DDP needs time to converge on its target
            duration_s=1.5,
        ),
        pool,
        cache,
    )
    assert ddp.ok, ddp.failures

    rows = []
    for entry in static.document["points"]:
        d_s = entry["point"]["sequencer_delay_us"]
        result = entry["result"]
        rows.append(
            [
                f"S-{int(d_s)}us",
                f"{result['inbound_unfairness']:.3%}",
                f"{result['mean_queuing_delay_us']:.0f}",
            ]
        )
    for entry in ddp.document["points"]:
        target = entry["point"]["ddp_inbound_target"]
        result = entry["result"]
        d_s = result["d_s_ns"] / 1000
        rows.append(
            [
                f"D-{target:.0%} (d_s -> {d_s:.0f}us)",
                f"{result['inbound_unfairness']:.3%}",
                f"{result['mean_queuing_delay_us']:.0f}",
            ]
        )

    print("\nThe latency-fairness trade-off (cf. Fig. 4a):\n")
    print(format_table(["setting", "inbound unfairness", "avg queuing delay (us)"], rows))
    print(
        "\nReading it: larger d_s buys fairness with queuing delay;"
        "\nDDP picks d_s automatically to land on the target ratio."
        f"\n(tasks: {static.executed + ddp.executed} executed, "
        f"{static.from_cache + ddp.from_cache} from cache)"
    )

    print("\nFour fairness mechanisms, one storm...")
    # The same job `python -m repro fairness` or a served client would
    # run; every field left out takes its default.
    spec, labels = build_fairness_study(normalize_job({
        "kind": "fairness",
        "clocks": ["huygens"],
        "scenarios": ["latency_storm"],
        "name": "fairness-lab-policies",
    }))
    frontier, outcome = run_fairness_study(spec, labels, pool, cache)
    assert outcome.ok, outcome.failures

    print()
    print(
        policy_comparison_table(
            [
                (policy, {
                    "inbound_unfairness_true": s["unfairness_true_mean"],
                    "hr_late_ratio": s["hr_late_ratio_mean"],
                    "e2e_p50_us": s["e2e_p50_us_mean"],
                    "events_per_order": s["events_per_order_mean"],
                })
                for policy, s in frontier["frontier"].items()
            ],
            columns=("inbound_unfairness_true", "hr_late_ratio",
                     "e2e_p50_us", "events_per_order"),
        )
    )
    print(
        "\nReading it: cloudex buys the most inbound order with the most"
        "\nhold; DBO gets close with no clock sync and less latency; PFO"
        "\ntrades a small miss probability for shorter holds; no-op is"
        "\nthe fast, unfair floor.  Full grid: python -m repro fairness"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="sweep worker processes")
    args = parser.parse_args()
    with WorkerPool(args.jobs) as pool:
        lab(pool, ResultCache())  # .repro-cache/ in the working directory


if __name__ == "__main__":
    main()
