"""Reproduce Fig. 5: DDP vs statics under injected time-varying delay.

The paper periodically injects 0, 400, and 200 us of extra delay on
the gateway->engine links, switching every 6 seconds, and shows that
DDP adapts -- achieving a better fairness/delay trade-off than any
static parameter.

Scaling note: the injection phase is shortened from 6 s to 1.5 s so a
benchmark run covers several full cycles in a few simulated seconds;
DDP's reaction time (5 us per 50 samples at 22k samples/s ~ 2 us of
delay change per ms) is far faster than either phase length, so the
adaptation dynamics are preserved.  EXPERIMENTS.md records this
deviation.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, paper_testbed_config, run_measured

PHASES_US = (0.0, 400.0, 200.0)
PHASE_SECONDS = 1.5
STATIC_POINTS = ((400.0, 800.0), (800.0, 1000.0), (1200.0, 1400.0))
DDP_TARGETS = (0.01, 0.03)


def _config(**overrides):
    return paper_testbed_config(
        injected_delay_phases_us=PHASES_US,
        injected_phase_seconds=PHASE_SECONDS,
        **overrides,
    )


@pytest.fixture(scope="module")
def fig5_results():
    cycle = PHASE_SECONDS * len(PHASES_US)
    static_rows = []
    for d_s, d_h in STATIC_POINTS:
        cluster = run_measured(
            _config(sequencer_delay_us=d_s, holdrelease_delay_us=d_h),
            warmup_s=cycle / 2,
            measure_s=cycle,  # one full injection cycle
        )
        m = cluster.metrics
        static_rows.append(
            (d_s, d_h, m.inbound_unfairness_ratio(), m.mean_queuing_delay_us(),
             m.outbound_unfairness_ratio(), m.mean_releasing_delay_us())
        )

    ddp_rows = []
    for target in DDP_TARGETS:
        cluster = run_measured(
            _config(
                sequencer_delay_us=400.0,
                holdrelease_delay_us=1000.0,
                ddp_inbound_target=target,
                ddp_outbound_target=target,
            ),
            warmup_s=cycle,
            measure_s=cycle,
        )
        m = cluster.metrics
        ddp_rows.append(
            (target, m.inbound_unfairness_ratio(), m.mean_queuing_delay_us(),
             m.outbound_unfairness_ratio(), m.mean_releasing_delay_us(),
             cluster.exchange.ddp_inbound.adjustments)
        )
    return static_rows, ddp_rows


def test_fig5_adaptation(fig5_results):
    static_rows, ddp_rows = fig5_results
    emit(
        "Fig. 5 (with artificial delay): static points",
        ["d_s/d_h (us)", "inbound", "queuing (us)", "outbound", "releasing (us)"],
        [
            [f"S-{int(ds)}/{int(dh)}", f"{inb:.3%}", f"{qd:.0f}", f"{out:.3%}", f"{rd:.0f}"]
            for ds, dh, inb, qd, out, rd in static_rows
        ],
    )
    emit(
        "Fig. 5 (with artificial delay): DDP points",
        ["target", "inbound", "queuing (us)", "outbound", "releasing (us)", "adjustments"],
        [
            [f"D-{t:.0%}", f"{inb:.3%}", f"{qd:.0f}", f"{out:.3%}", f"{rd:.0f}", adj]
            for t, inb, qd, out, rd, adj in ddp_rows
        ],
    )

    # DDP actively adapts (many adjustments over the cycle).
    for *_, adjustments in ddp_rows:
        assert adjustments > 20

    # The paper's trade-off claim: for comparable inbound unfairness,
    # DDP spends less queuing delay than the static settings that
    # survive the 400 us injection.  Compare each DDP point against
    # statics with unfairness no better than ~1.5x the DDP point.
    for target, inbound, queuing, _, _, _ in ddp_rows:
        comparable = [qd for _, _, inb, qd, _, _ in static_rows if inb <= inbound * 1.5]
        if comparable:
            assert queuing <= max(comparable)

    # The smallest static point is less fair than the D-1% run; DDP stays
    # near target.  Stated on the outbound ratio, which has margin on both
    # sides at any scale: over seeds 2021 and 1-5 at CLOUDEX_BENCH_SCALE=0.3,
    # S-400/800 reads 8.7-13.7 % against D-1%'s 1.1-4.3 % (worst pair 2.0x).
    # The inbound ratio does not: at that scale S-400's is measured over
    # ~0.5 s of the 400 us phase and reads 0.45-2.6 % against D-1%'s
    # 1.4-1.8 %, either side of it by the luck of the seed.
    assert static_rows[0][4] > 1.5 * ddp_rows[0][3]
    for target, inbound, *_ in ddp_rows:
        assert inbound < 4 * target
