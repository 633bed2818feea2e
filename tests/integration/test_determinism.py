"""Determinism guarantees under every feature combination.

Bit-identical reruns are what make the benchmarks trustworthy and the
bugs reproducible; these tests lock that property across the feature
matrix (ROS, DDP, Huygens, stragglers, risk controls, faults).
"""

import pytest

from repro.core.cluster import CloudExCluster
from tests.conftest import small_config


def run_summary(**overrides):
    cluster = CloudExCluster(small_config(**overrides))
    cluster.add_default_workload(rate_per_participant=200.0)
    cluster.run(duration_s=0.6)
    summary = cluster.metrics.summary()
    summary["cpu"] = tuple(sorted(cluster.cpu_report().items()))
    summary["d_s"] = cluster.exchange.current_sequencer_delay_ns()
    summary["d_h"] = cluster.exchange.d_h
    summary["rows"] = cluster.trade_table.row_count()
    return summary


FEATURE_MATRIX = [
    {},
    {"replication_factor": 3},
    {"ddp_inbound_target": 0.02, "ddp_outbound_target": 0.02},
    {"clock_sync": "huygens", "sync_use_mesh": True},
    {"straggler_gateways": 1, "straggler_multiplier": 3.0},
    {"self_trade_prevention": True, "risk_max_position": 100_000},
]


@pytest.mark.parametrize("overrides", FEATURE_MATRIX, ids=lambda o: ",".join(o) or "default")
def test_reruns_are_bit_identical(overrides):
    assert run_summary(**overrides) == run_summary(**overrides)


def test_seed_changes_outcomes():
    base = run_summary()
    other = run_summary(seed=99)
    assert base != other


def test_a_run_cut_in_two_is_the_same_run():
    """Every data-plane stream is read through a block cursor (DESIGN
    §4.11); where ``run`` calls slice simulated time must not show --
    the property ``bench/`` relies on when it times a repetition in
    six consecutive ``run`` calls."""

    def payload(*durations):
        cluster = CloudExCluster(
            small_config(
                clock_sync="huygens",
                replication_factor=2,
                straggler_gateways=1,
                injected_delay_phases_us=(0.0, 400.0, 200.0),
                injected_phase_seconds=0.1,
            )
        )
        cluster.add_default_workload(rate_per_participant=400.0)
        for duration_s in durations:
            cluster.run(duration_s=duration_s)
        return cluster.result_payload()

    assert payload(0.125, 0.25, 0.125) == payload(0.5)
