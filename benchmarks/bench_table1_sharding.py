"""Reproduce Table 1: throughput and median latency vs shard count.

Paper (Table 1):

    Shards  Throughput  Submission (us)  End-to-end (us)
    1       22k         365              1128
    2       40k         402              1089
    4       49k         401              1094
    8       61k         390              1080
    16      61k         395              1044

Throughput stops improving after ~8 shards because shards serialize
updates to shared data structures (the portfolio matrix).  We measure
saturation throughput under overload, and latencies at the paper's
22k orders/s offered load.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    PAPER_SEED,
    bench_jobs,
    bench_scale,
    emit,
    paper_testbed_overrides,
)
from repro.exp import ResultCache, SweepSpec, run_sweep

SHARD_COUNTS = (1, 2, 4, 8, 16)

PAPER = {
    1: (22_000, 365, 1128),
    2: (40_000, 402, 1089),
    4: (49_000, 401, 1094),
    8: (61_000, 390, 1080),
    16: (61_000, 395, 1044),
}


@pytest.fixture(scope="module")
def table1_results():
    scale = bench_scale()
    jobs = bench_jobs()
    cache = ResultCache()
    # Phase 1 -- saturation throughput: offer ~1.3x the expected
    # plateau at every shard count, fanned out over the sweep pool.
    overload = run_sweep(
        SweepSpec(
            name="table1-overload",
            grid=[{"n_shards": shards} for shards in SHARD_COUNTS],
            seeds=[PAPER_SEED],
            base=paper_testbed_overrides(cancel_fraction=0.0),
            warmup_s=0.5 * scale,
            duration_s=1.0 * scale,
            rate_per_participant=1_700.0,
        ),
        jobs=jobs,
        cache=cache,
    )
    assert overload.ok, overload.failures
    throughputs = {
        entry["point"]["n_shards"]: entry["result"]["throughput_per_s"]
        for entry in overload.document["points"]
    }
    # Phase 2 -- latency at the paper's offered load (22k/s aggregate),
    # capped at 85% of the measured capacity: Table 1's own e2e numbers
    # (~1.1 ms at every shard count) imply the engine was not run into
    # saturation for the latency measurement.  The per-point rate is a
    # reserved sweep key, so one grid carries all five shard counts.
    nominal = run_sweep(
        SweepSpec(
            name="table1-nominal",
            grid=[
                {
                    "n_shards": shards,
                    "rate_per_participant": min(450.0, 0.85 * throughputs[shards] / 48.0),
                }
                for shards in SHARD_COUNTS
            ],
            seeds=[PAPER_SEED],
            base=paper_testbed_overrides(),
            warmup_s=0.3 * scale,
            duration_s=1.0 * scale,
        ),
        jobs=jobs,
        cache=cache,
    )
    assert nominal.ok, nominal.failures
    results = {}
    for entry in nominal.document["points"]:
        shards = entry["point"]["n_shards"]
        result = entry["result"]
        results[shards] = (
            throughputs[shards],
            result["submission_p50_us"],
            result["e2e_p50_us"],
        )
    return results


def test_table1(benchmark, table1_results):
    def run():
        return table1_results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for shards in SHARD_COUNTS:
        throughput, submission, e2e = results[shards]
        p_thr, p_sub, p_e2e = PAPER[shards]
        rows.append(
            [
                shards,
                f"{throughput/1000:.1f}k",
                f"{submission:.0f}",
                f"{e2e:.0f}",
                f"{p_thr/1000:.0f}k / {p_sub} / {p_e2e}",
            ]
        )
    emit(
        "Table 1: CloudEx throughput and median latency vs shards",
        ["shards", "throughput", "submission p50 (us)", "e2e p50 (us)", "paper (thr/sub/e2e)"],
        rows,
    )

    throughputs = [results[s][0] for s in SHARD_COUNTS]
    # Shape assertions: monotone non-decreasing ramp...
    assert throughputs[0] == pytest.approx(22_000, rel=0.15)
    assert throughputs[1] > 1.5 * throughputs[0]
    # ... and a plateau: 8 and 16 shards within 5% of each other,
    # roughly 2.5-3x the single-shard rate (paper: 2.8x).
    assert throughputs[4] == pytest.approx(throughputs[3], rel=0.05)
    assert 2.2 * throughputs[0] < throughputs[4] < 3.4 * throughputs[0]
    # Submission latency is shard-count independent (paper: 365-402 us).
    submissions = [results[s][1] for s in SHARD_COUNTS]
    assert max(submissions) - min(submissions) < 80
