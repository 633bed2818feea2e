"""Unfairness accounting on synthetic release schedules.

The inbound ratios (measured vs true) and the outbound lateness
boundary are the numbers the frontier study compares across backends,
so their semantics are pinned here independently of any policy's
rule: the schedules go through the one sequencer in arrival order.
"""

import pytest

from repro.core.sequencer import Sequencer
from repro.fairness.noop import arrival_rank
from repro.obs.breakdown import POLICY_METRIC_FIELDS, policy_metrics_row
from repro.sim.clock import HostClock
from repro.sim.engine import Simulator


def replay(schedule, rank=arrival_rank, delay_ns=0):
    """Release (gateway_ts, stamped_true) pairs in the order given, one
    per ns, and return the sequencer that accounted for them."""
    sim = Simulator()
    samples = []
    recorder = Sequencer(
        sim, HostClock(sim), on_eligible=lambda: recorder.pop_eligible(),
        delay_ns=delay_ns, on_sample=samples.append, rank=rank,
    )
    for i, (gateway_ts, stamped_true) in enumerate(schedule):
        sim.schedule_at(i, recorder.enqueue, (gateway_ts, "g", i), i, stamped_true)
    sim.run()
    assert recorder.released_count == len(schedule)
    return recorder, samples


class TestInboundRatios:
    def test_empty_schedule_is_fair(self):
        recorder, _ = replay([])
        assert recorder.inbound_unfairness_ratio() == 0.0
        assert recorder.inbound_unfairness_ratio_true() == 0.0

    def test_monotone_schedule_is_fair(self):
        recorder, samples = replay([(10, 10), (20, 20), (30, 30)])
        assert recorder.out_of_sequence_count == 0
        assert recorder.out_of_sequence_true_count == 0
        assert all(not s.out_of_sequence for s in samples)

    def test_inversion_counts_against_preceding_release_only(self):
        # 20 released after 30: ooseq.  25 after 20: in order again,
        # even though 25 < 30 -- the paper compares to the *preceding
        # processed* order, not the running maximum.
        recorder, samples = replay([(10, 10), (30, 30), (20, 20), (25, 25)])
        assert [s.out_of_sequence for s in samples] == [False, False, True, False]
        assert recorder.inbound_unfairness_ratio() == pytest.approx(0.25)

    def test_equal_timestamps_are_not_inversions(self):
        recorder, _ = replay([(10, 10), (10, 10), (10, 10)])
        assert recorder.out_of_sequence_count == 0
        assert recorder.out_of_sequence_true_count == 0

    def test_measured_and_true_ratios_diverge_under_skew(self):
        # Gateway timestamps monotone (the exchange *measures* fairness)
        # while true stamping order is inverted (ground truth disagrees):
        # exactly the desynchronized-exchange blind spot.
        recorder, samples = replay([(10, 100), (20, 50), (30, 75)])
        assert recorder.inbound_unfairness_ratio() == 0.0
        assert recorder.inbound_unfairness_ratio_true() == pytest.approx(1 / 3)
        assert [s.out_of_sequence_true for s in samples] == [False, True, False]

    def test_sample_carries_queuing_delay(self):
        # Default rank, d_s = 1: enqueued at 0, eligible at ts 0 + 1.
        recorder, samples = replay([(0, 0)], rank=None, delay_ns=1)
        assert samples[0].queuing_delay_ns == 1


class TestPolicyMetricsRow:
    def test_schema_is_exactly_the_shared_fields(self):
        row = policy_metrics_row({})
        assert tuple(row) == POLICY_METRIC_FIELDS
        assert all(value == 0.0 for value in row.values())

    def test_events_per_order_derived(self):
        row = policy_metrics_row(
            {"events_processed": 1200, "orders_matched": 60, "e2e_p50_us": 3.5}
        )
        assert row["events_per_order"] == pytest.approx(20.0)
        assert row["e2e_p50_us"] == 3.5

    def test_zero_orders_yields_zero_ratio(self):
        row = policy_metrics_row({"events_processed": 1200, "orders_matched": 0})
        assert row["events_per_order"] == 0.0

    def test_none_values_coerce_to_zero(self):
        row = policy_metrics_row({"hr_late_ratio": None})
        assert row["hr_late_ratio"] == 0.0
