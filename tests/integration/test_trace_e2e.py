"""End-to-end tracing: a small traced cluster run.

Checks the tentpole's acceptance property: for every completed trace,
the per-stage durations telescope exactly to the end-to-end latency,
and those latencies agree with the ground-truth MetricsCollector.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest

from repro.core.cluster import CloudExCluster
from repro.core.types import RejectReason
from repro.fairness import POLICY_NAMES
from repro.obs import tracing
from repro.obs.breakdown import END_TO_END, STAGES, stage_durations_ns

from tests.conftest import small_config


def traced_cluster(**overrides) -> CloudExCluster:
    config = small_config(
        tracing=True,
        replication_factor=2,
        clock_sync="perfect",
        **overrides,
    )
    cluster = CloudExCluster(config)
    cluster.add_default_workload()
    return cluster


class TestTracedRun:
    def test_stages_sum_to_e2e_and_match_metrics(self):
        cluster = traced_cluster()
        cluster.run(duration_s=0.4)
        completed = cluster.tracer.completed_traces()
        assert len(completed) > 20
        e2e_ground_truth = set(cluster.metrics.e2e_latencies_ns)
        for trace in completed:
            durations = stage_durations_ns(trace)
            assert durations is not None
            stage_sum = sum(durations[label] for label, _, _ in STAGES)
            assert stage_sum == durations[END_TO_END] == trace.e2e_ns()
            assert trace.e2e_ns() in e2e_ground_truth

    def test_span_monotone_and_ros_replicas(self):
        cluster = traced_cluster()
        cluster.run(duration_s=0.4)
        for trace in cluster.tracer.completed_traces():
            chain = trace.chain()
            times = [s.t_true for s in chain]
            assert times == sorted(times)
            # rf=2: both replicas stamp, both reach engine ingress.
            assert len(trace.spans_of(tracing.GW_INGRESS)) == 2
            assert len(trace.spans_of(tracing.ROS_DEDUP)) == 2
            assert trace.winning_gateway in {h.name for h in cluster.gateway_hosts}

    def test_same_seed_same_jsonl(self):
        dumps = []
        for _ in range(2):
            cluster = traced_cluster()
            cluster.run(duration_s=0.3)
            dumps.append(cluster.tracer.dumps_jsonl())
        assert dumps[0] == dumps[1]
        assert dumps[0]  # non-empty

    def test_counters_populated(self):
        cluster = traced_cluster()
        cluster.run(duration_s=0.3)
        snap = cluster.metrics.counts()
        # rf=2 and every order completes ingress twice: one duplicate
        # dropped per order that reached the engine.
        assert snap["ros.duplicates_dropped"] > 0
        assert "engine.shard0.queue_depth" in snap
        assert "net.dropped_while_down" in snap
        assert cluster.metrics.summary()["messages_dropped"] == snap["net.dropped_while_down"]

    def test_dispatch_profiler_active(self):
        cluster = traced_cluster()
        cluster.run(duration_s=0.3)
        assert cluster.profiler is not None
        assert cluster.profiler.total > 0
        assert any("deliver" in name for name in cluster.profiler.counts)

    def test_tracing_off_by_default(self):
        cluster = CloudExCluster(small_config())
        assert cluster.tracer is None
        assert cluster.profiler is None
        assert cluster.sim.dispatch_hook is None

    def test_sampling_reduces_traces(self):
        full = traced_cluster()
        full.run(duration_s=0.3)
        sampled = traced_cluster(trace_sample_rate=0.25)
        sampled.run(duration_s=0.3)
        assert 0 < len(sampled.tracer.traces) < len(full.tracer.traces)
        # Sampled traces are a subset of the full run's traces.
        assert set(sampled.tracer.traces) <= set(full.tracer.traces)


class TestOrderRecord:
    """The tracer and the trade tape are the per-order record (paper §6)
    under every fairness policy, with and without synchronized clocks."""

    @pytest.fixture(
        scope="class",
        params=[(policy, sync) for policy in POLICY_NAMES for sync in ("huygens", "none")],
        ids="-".join,
    )
    def run(self, request):
        policy, sync = request.param
        cluster = CloudExCluster(
            small_config(
                tracing=True, cancel_fraction=0.1, fairness_policy=policy, clock_sync=sync
            )
        )
        cluster.add_default_workload(rate_per_participant=150.0)
        # Every confirmation each participant receives, in arrival order.
        confirmed = defaultdict(list)
        for participant in cluster.participants:
            deliver = participant._on_confirmation

            def record(conf, deliver=deliver):
                confirmed[(conf.participant_id, conf.client_order_id)].append(conf)
                deliver(conf)

            participant._on_confirmation = record
        cluster.run(duration_s=0.8)
        return cluster, confirmed

    def test_traces_are_wellformed(self, run):
        cluster, confirmed = run
        completed = cluster.tracer.completed_traces()
        assert len(completed) > 300
        cancels_confirmed = 0
        for trace in completed:
            assert trace.lifecycle_is_wellformed(), trace
            got = [str(c.status) for c in confirmed[(trace.participant, trace.client_order_id)]]
            # The match span carries the status the participant was
            # confirmed; every further confirmation is a client cancel
            # the engine answered, and each left a cancel span.
            got.remove(trace.first(tracing.MATCH).detail)
            cancel_details = Counter(s.detail for s in trace.spans_of(tracing.CANCEL))
            assert not Counter(got) - cancel_details, trace
            cancels_confirmed += len(got)
        assert cancels_confirmed > 0

    def test_tape_fills_sum_to_filled(self, run):
        cluster, confirmed = run
        fills = defaultdict(list)  # (participant, order id) -> [(executed_local, quantity)]
        for symbol in cluster.config.symbols:
            for trade in cluster.history.trades(symbol):
                stamp = (trade.executed_local, trade.quantity)
                fills[(trade.buyer, trade.buy_client_order_id)].append(stamp)
                fills[(trade.seller, trade.sell_client_order_id)].append(stamp)
        assert sum(len(v) for v in fills.values()) == 2 * cluster.metrics.trades_executed > 0
        for key, confirmations in confirmed.items():
            for conf in confirmations:
                # A cancel rejected as unknown names no order, so no fills.
                if conf.reason is not RejectReason.UNKNOWN_ORDER:
                    on_tape = sum(q for at, q in fills[key] if at <= conf.engine_timestamp)
                    assert on_tape == conf.filled, conf
