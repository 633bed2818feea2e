"""Reproduce Fig. 6: Replicated Order Submission (ROS).

Fig. 6a -- submission latency percentiles vs replication factor:

    RF   p50   p99   p99.9   (us, paper)
    1    365   678   1096
    2    321   508    729
    3    309   483    658
    4    320   518    770
    5    322   577   1044

RF=3 is the sweet spot; beyond it "latency degrades due to the CPU
spending more time in discarding duplicates".

Fig. 6b -- CPU cost (cores) vs RF:

    RF   engine  gateway  participant   (paper)
    1    13.0    2.4      0.4
    2    14.1    2.7      0.5
    3    15.4    3.1      0.6
    4    17.6    3.5      0.7
    5    18.4    3.8      0.8
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
from repro.exp import ResultCache, SweepSpec, WorkerPool, run_sweep

REPLICATION_FACTORS = (1, 2, 3, 4, 5)

PAPER_LATENCY = {1: (365, 678, 1096), 2: (321, 508, 729), 3: (309, 483, 658),
                 4: (320, 518, 770), 5: (322, 577, 1044)}
PAPER_CPU = {1: (13.0, 2.4, 0.4), 2: (14.1, 2.7, 0.5), 3: (15.4, 3.1, 0.6),
             4: (17.6, 3.5, 0.7), 5: (18.4, 3.8, 0.8)}


@pytest.fixture(scope="module")
def ros_results():
    from types import SimpleNamespace

    scale = bench_scale()
    with WorkerPool(bench_jobs()) as pool:
        outcome = run_sweep(
            SweepSpec(
                name="fig6-ros",
                grid=[{"replication_factor": rf} for rf in REPLICATION_FACTORS],
                seeds=[PAPER_SEED],
                base=paper_testbed_overrides(cancel_fraction=0.0),
                warmup_s=0.3 * scale,
                duration_s=1.5 * scale,
            ),
            pool,
            ResultCache(),
        )
    assert outcome.ok, outcome.failures
    results = {}
    for entry in outcome.document["points"]:
        rf = entry["point"]["replication_factor"]
        payload = entry["result"]
        summary = SimpleNamespace(
            p50_us=payload["submission_p50_us"],
            p99_us=payload["submission_p99_us"],
            p999_us=payload["submission_p999_us"],
        )
        results[rf] = (summary, payload["cpu"], payload["duplicates_dropped"],
                       payload["replicas_received"])
    return results


def test_fig6a_submission_latency(ros_results):
    rows = []
    for rf in REPLICATION_FACTORS:
        summary = ros_results[rf][0]
        paper = PAPER_LATENCY[rf]
        rows.append(
            [rf, f"{summary.p50_us:.0f}", f"{summary.p99_us:.0f}",
             f"{summary.p999_us:.0f}", f"{paper[0]} / {paper[1]} / {paper[2]}"]
        )
    emit(
        "Fig. 6a: submission latency vs replication factor",
        ["RF", "p50 (us)", "p99 (us)", "p99.9 (us)", "paper (p50/p99/p99.9)"],
        rows,
    )

    p50 = {rf: ros_results[rf][0].p50_us for rf in REPLICATION_FACTORS}
    p999 = {rf: ros_results[rf][0].p999_us for rf in REPLICATION_FACTORS}
    # RF=1 matches the calibrated baseline.
    assert p50[1] == pytest.approx(365, rel=0.15)
    assert p999[1] == pytest.approx(1096, rel=0.25)
    # Replication helps through RF=3 (median modestly, tail strongly).
    assert p50[3] < p50[1]
    assert p999[3] < 0.75 * p999[1]
    # Beyond RF=3, dedup work degrades latency again (the crossover).
    assert p999[5] > p999[3]
    assert p50[5] > p50[3]
    # Dedup machinery really ran.
    _, _, dropped, received = ros_results[5]
    assert dropped == pytest.approx(received * 4 / 5, rel=0.02)


def test_fig6b_cpu_cost(ros_results):
    rows = []
    for rf in REPLICATION_FACTORS:
        cpu = ros_results[rf][1]
        paper = PAPER_CPU[rf]
        rows.append(
            [rf, f"{cpu['engine_cores']:.1f}", f"{cpu['gateway_cores']:.2f}",
             f"{cpu['participant_cores']:.2f}",
             f"{paper[0]} / {paper[1]} / {paper[2]}"]
        )
    emit(
        "Fig. 6b: CPU cost (cores) vs replication factor",
        ["RF", "engine", "gateway", "participant", "paper (eng/gw/part)"],
        rows,
    )

    for rf in REPLICATION_FACTORS:
        cpu = ros_results[rf][1]
        engine, gateway, participant = PAPER_CPU[rf]
        assert cpu["engine_cores"] == pytest.approx(engine, rel=0.15)
        assert cpu["gateway_cores"] == pytest.approx(gateway, rel=0.15)
        assert cpu["participant_cores"] == pytest.approx(participant, rel=0.2)
    # Cost grows monotonically with RF for every VM type.
    for key in ("engine_cores", "gateway_cores", "participant_cores"):
        series = [ros_results[rf][1][key] for rf in REPLICATION_FACTORS]
        assert series == sorted(series)
