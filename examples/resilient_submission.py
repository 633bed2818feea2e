#!/usr/bin/env python3
"""Replicated Order Submission vs stragglers and crashes (paper §3).

Two demonstrations on one deployment shape:

1. *Stragglers*: one of four gateways runs 4x slow.  Submitting each
   order through 3 gateways (RF = 3) lets the engine take the earliest
   replica, collapsing the latency tail (cf. Fig. 6a).
2. *Crash fault tolerance*: mid-run, a participant's primary gateway
   crashes -- injected declaratively through a ``repro.chaos`` fault
   schedule rather than poking the host by hand.  With RF = 1 its
   orders vanish; with RF = 2 trading simply continues through the
   replica path.  (``python -m repro chaos`` runs the full
   invariant-checked versions of this scenario.)

Run:  python examples/resilient_submission.py
"""

from typing import Optional

from repro import CloudExCluster, CloudExConfig
from repro.chaos import FaultSchedule, HostCrash


def build(rf: int, chaos: Optional[FaultSchedule] = None) -> CloudExCluster:
    config = CloudExConfig(
        seed=33,
        n_participants=12,
        n_gateways=4,
        n_symbols=10,
        replication_factor=rf,
        straggler_gateways=1,
        straggler_multiplier=4.0,
        orders_per_participant_per_s=300.0,
        subscriptions_per_participant=2,
        chaos=chaos,
    )
    cluster = CloudExCluster(config)
    cluster.add_default_workload()
    return cluster


def main() -> None:
    print("Part 1: straggler gateways and the latency tail")
    print(f"{'RF':>3} {'p50 (us)':>10} {'p99 (us)':>10} {'p99.9 (us)':>11} {'dups dropped':>13}")
    for rf in (1, 2, 3):
        cluster = build(rf)
        cluster.run(duration_s=2.0)
        summary = cluster.metrics.submission_summary()
        print(
            f"{rf:>3} {summary.p50_us:>10.0f} {summary.p99_us:>10.0f} "
            f"{summary.p999_us:>11.0f} "
            f"{cluster.metrics.windowed('ros.duplicates_dropped'):>13.0f}"
        )

    print("\nPart 2: a gateway crash mid-session")
    for rf in (1, 2):
        # The crash is a declarative, seed-reproducible chaos schedule:
        # the participant's primary gateway (p00 -> g00) goes down at
        # t=1.0s and stays down.
        cluster = build(rf, chaos=FaultSchedule((HostCrash("g00", at_s=1.0),)))
        victim = cluster.participant(0)
        crashed = victim.primary_gateway
        cluster.run(duration_s=1.0)
        orders_before = victim.orders_submitted
        confs_before = victim.confirmations_received

        cluster.run(duration_s=1.0)

        submitted = victim.orders_submitted - orders_before
        confirmed = victim.confirmations_received - confs_before
        print(
            f"  RF={rf}: after {crashed} crashed, {victim.name} submitted "
            f"{submitted} orders and received {confirmed} confirmations "
            f"({'trading continued' if confirmed > 0 else 'cut off from the market'})"
        )


if __name__ == "__main__":
    main()
