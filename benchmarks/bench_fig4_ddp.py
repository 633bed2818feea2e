"""Reproduce Fig. 4: DDP vs static delay parameters (no artificial delay).

Fig. 4a plots average queuing delay against inbound unfairness for
static d_s values (200-1000 us) and DDP targets (0.5-5%); Fig. 4b the
same for releasing delay / outbound unfairness with static d_h
(500-1200 us) and DDP targets (0.5-10%).

The paper's claims to reproduce:
1. DDP's achieved unfairness ratios land close to their targets
   (direct control), while the static sweep's unfairness is a steep,
   unintuitive function of the delay parameter.
2. Static points trace the latency-fairness trade-off: more delay,
   less unfairness.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, paper_testbed_config, run_measured

STATIC_DELAYS_US = (200.0, 500.0, 800.0, 1000.0)
STATIC_DH_US = (500.0, 800.0, 1000.0, 1200.0)
DDP_TARGETS = (0.005, 0.01, 0.03, 0.05)


@pytest.fixture(scope="module")
def fig4_results():
    static_rows = []
    for d_s, d_h in zip(STATIC_DELAYS_US, STATIC_DH_US):
        cluster = run_measured(
            paper_testbed_config(sequencer_delay_us=d_s, holdrelease_delay_us=d_h),
            warmup_s=0.5,
            measure_s=1.5,
        )
        m = cluster.result_payload()
        static_rows.append(
            (
                d_s,
                d_h,
                m["inbound_unfairness"],
                m["mean_queuing_delay_us"],
                m["outbound_unfairness"],
                m["mean_releasing_delay_us"],
            )
        )

    ddp_rows = []
    for target in DDP_TARGETS:
        cluster = run_measured(
            paper_testbed_config(
                sequencer_delay_us=400.0,
                holdrelease_delay_us=1000.0,
                ddp_inbound_target=target,
                ddp_outbound_target=target,
            ),
            warmup_s=4.0,  # let both controllers converge
            measure_s=2.0,
        )
        m = cluster.result_payload()
        ddp_rows.append(
            (
                target,
                m["inbound_unfairness"],
                m["mean_queuing_delay_us"],
                m["outbound_unfairness"],
                m["mean_releasing_delay_us"],
            )
        )
    return static_rows, ddp_rows


def test_fig4a_inbound(fig4_results):
    static_rows, ddp_rows = fig4_results
    emit(
        "Fig. 4a (inbound): static d_s sweep",
        ["d_s (us)", "inbound unfairness", "avg queuing delay (us)"],
        [[f"S-{int(r[0])}", f"{r[2]:.3%}", f"{r[3]:.0f}"] for r in static_rows],
    )
    emit(
        "Fig. 4a (inbound): DDP targets",
        ["target", "achieved", "avg queuing delay (us)"],
        [[f"D-{t:.1%}", f"{inb:.3%}", f"{qd:.0f}"] for t, inb, qd, _, _ in ddp_rows],
    )

    # Static sweep: fairness improves monotonically with d_s, and the
    # 500 -> 200 us step worsens unfairness by a large factor (the
    # paper's order-of-magnitude example).
    inbound = [r[2] for r in static_rows]
    assert inbound == sorted(inbound, reverse=True)
    assert inbound[0] > 3 * max(inbound[1], 1e-5)
    # Queuing delay rises with d_s.
    queuing = [r[3] for r in static_rows]
    assert queuing == sorted(queuing)
    # DDP: achieved ratio near its target (direct control).
    for target, achieved, _, _, _ in ddp_rows:
        assert achieved == pytest.approx(target, rel=0.75, abs=0.004)


def test_fig4b_outbound(fig4_results):
    static_rows, ddp_rows = fig4_results
    emit(
        "Fig. 4b (outbound): static d_h sweep",
        ["d_h (us)", "outbound unfairness", "avg releasing delay (us)"],
        [[f"S-{int(r[1])}", f"{r[4]:.3%}", f"{r[5]:.0f}"] for r in static_rows],
    )
    emit(
        "Fig. 4b (outbound): DDP targets",
        ["target", "achieved", "avg releasing delay (us)"],
        [[f"D-{t:.1%}", f"{out:.3%}", f"{rd:.0f}"] for t, _, _, out, rd in ddp_rows],
    )

    outbound = [r[4] for r in static_rows]
    assert outbound == sorted(outbound, reverse=True)
    releasing = [r[5] for r in static_rows]
    assert releasing == sorted(releasing)
    # DDP controls outbound unfairness toward the target (tolerance is
    # looser: the per-piece any-of-16-gateways statistic is noisy).
    for target, _, _, achieved, _ in ddp_rows:
        assert achieved < 4 * target + 0.01
