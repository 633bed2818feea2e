"""Unit tests for repro.obs.tracing."""

import tracemalloc

import pytest

from repro.obs import tracing
from repro.obs.tracing import OrderTrace, Span, Tracer, load_traces


def make_completed_tracer(rate: float = 1.0) -> Tracer:
    """A tracer with one hand-built complete trace (two ROS replicas)."""
    tracer = Tracer(sample_rate=rate)
    tracer.begin_order("p00", 1, "SYM0", 100, 95, "p00")
    tracer.span("p00", 1, tracing.GW_INGRESS, 200, 201, "g01")
    tracer.span("p00", 1, tracing.GW_INGRESS, 220, 219, "g00")
    tracer.span("p00", 1, tracing.ROS_DEDUP, 300, 300, "engine", detail="g01")
    tracer.span("p00", 1, tracing.ROS_DEDUP, 340, 340, "engine", detail="g00")
    tracer.span("p00", 1, tracing.SEQ_HOLD, 700, 700, "engine")
    tracer.span("p00", 1, tracing.MATCH, 750, 750, "engine")
    tracer.span("p00", 1, tracing.CONFIRM_DELIVERY, 900, 894, "p00")
    return tracer


class TestSpan:
    def test_clock_error(self):
        span = Span(tracing.SUBMIT, t_true=100, t_local=95, host="p00")
        assert span.clock_error_ns == -5

    def test_frozen(self):
        span = Span(tracing.SUBMIT, 1, 1, "h")
        with pytest.raises(Exception):
            span.t_true = 2


class TestOrderTrace:
    def test_span_ordering_and_chain(self):
        trace = make_completed_tracer().get("p00", 1)
        assert trace is not None
        assert trace.completed
        assert [s.kind for s in trace.spans] == [
            tracing.SUBMIT,
            tracing.GW_INGRESS,
            tracing.GW_INGRESS,
            tracing.ROS_DEDUP,
            tracing.ROS_DEDUP,
            tracing.SEQ_HOLD,
            tracing.MATCH,
            tracing.CONFIRM_DELIVERY,
        ]
        chain = trace.chain()
        assert chain is not None
        # The chain picks the WINNING replica's gw_ingress span (g01,
        # stamped at 200), not the loser's (g00 at 220), so true times
        # are strictly monotone.
        assert [s.kind for s in chain] == list(tracing.CRITICAL_CHAIN)
        assert chain[1].host == "g01"
        times = [s.t_true for s in chain]
        assert times == sorted(times)

    def test_winner_and_margin(self):
        trace = make_completed_tracer().get("p00", 1)
        assert trace.winning_gateway == "g01"
        assert trace.ros_margin_ns() == 40

    def test_margin_needs_two_replicas(self):
        trace = OrderTrace("p", 1, "S")
        trace.add(Span(tracing.ROS_DEDUP, 10, 10, "engine", "g00"))
        assert trace.ros_margin_ns() is None

    def test_e2e(self):
        trace = make_completed_tracer().get("p00", 1)
        assert trace.e2e_ns() == 800

    def test_incomplete_chain_is_none(self):
        tracer = Tracer()
        tracer.begin_order("p00", 1, "SYM0", 100, 100, "p00")
        trace = tracer.get("p00", 1)
        assert not trace.completed
        assert trace.chain() is None
        assert trace.e2e_ns() is None


def trace_of(*spans) -> OrderTrace:
    trace = OrderTrace("p00", 1, "SYM0")
    for kind, t_true, t_local, host in spans:
        trace.add(Span(kind, t_true, t_local, host, "g01" if kind == tracing.ROS_DEDUP else ""))
    return trace


class TestLifecycleCheck:
    """The §6 surveillance rule, restated over spans."""

    CHAIN = (
        (tracing.SUBMIT, 100, 95, "p00"),
        (tracing.GW_INGRESS, 200, 201, "g01"),
        (tracing.ROS_DEDUP, 300, 300, "engine"),
        (tracing.SEQ_HOLD, 700, 700, "engine"),
        (tracing.MATCH, 750, 750, "engine"),
        (tracing.CONFIRM_DELIVERY, 900, 894, "p00"),
    )

    def test_wellformed_chain(self):
        assert trace_of(*self.CHAIN).lifecycle_is_wellformed()
        # Two ROS replicas, fills released through H/R, a later client
        # cancel and its confirmation: still one well-formed lifecycle.
        trace = make_completed_tracer().get("p00", 1)
        trace.add(Span(tracing.CANCEL, 1200, 1200, "engine", "cancelled"))
        trace.add(Span(tracing.CONFIRM_DELIVERY, 1500, 1494, "p00"))
        assert trace.lifecycle_is_wellformed()

    def test_clocks_of_different_hosts_are_never_compared(self):
        # A gateway whose free-running clock reads far ahead of the
        # engine's: honest, and what the deleted audit check flagged.
        spans = list(self.CHAIN)
        spans[1] = (tracing.GW_INGRESS, 200, 5_000_000, "g01")
        assert trace_of(*spans).lifecycle_is_wellformed()

    def test_out_of_order_phases_flagged(self):
        spans = list(self.CHAIN)
        spans[3] = (tracing.SEQ_HOLD, 250, 250, "engine")  # released before it was admitted
        assert not trace_of(*spans).lifecycle_is_wellformed()

    def test_host_clock_running_backwards_flagged(self):
        spans = list(self.CHAIN)
        spans[4] = (tracing.MATCH, 750, 650, "engine")  # true time advances, engine clock does not
        assert not trace_of(*spans).lifecycle_is_wellformed()

    def test_matched_twice_flagged(self):
        spans = self.CHAIN[:5] + ((tracing.MATCH, 800, 800, "engine"),) + self.CHAIN[5:]
        assert not trace_of(*spans).lifecycle_is_wellformed()

    def test_incomplete_chain_flagged(self):
        assert not trace_of(*self.CHAIN[:4]).lifecycle_is_wellformed()

    def test_missing_order_has_no_trace(self):
        assert make_completed_tracer().get("p00", 99) is None


class TestSampling:
    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        for i in range(50):
            assert tracer.wants("p00", i)

    def test_rate_zero_samples_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        for i in range(50):
            assert not tracer.wants("p00", i)
        tracer.begin_order("p00", 1, "S", 0, 0, "p00")
        assert tracer.traces == {}
        assert tracer.skipped == 1

    def test_fractional_rate_is_deterministic(self):
        a = Tracer(sample_rate=0.5)
        b = Tracer(sample_rate=0.5)
        keys = [("p%02d" % (i % 4), i) for i in range(400)]
        decisions_a = [a.wants(p, i) for p, i in keys]
        decisions_b = [b.wants(p, i) for p, i in keys]
        assert decisions_a == decisions_b
        # Roughly half sampled (hash is uniform; generous bounds).
        sampled = sum(decisions_a)
        assert 120 < sampled < 280

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_unsampled_span_is_noop(self):
        tracer = Tracer(sample_rate=0.0)
        tracer.span("p00", 7, tracing.MATCH, 1, 1, "engine")
        assert tracer.traces == {}


class TestDisabledTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.begin_order("p00", 1, "S", 0, 0, "p00")
        tracer.span("p00", 1, tracing.MATCH, 1, 1, "engine")
        assert tracer.traces == {}
        assert tracer.sampled == 0

    def test_disabled_hooks_allocate_nothing(self):
        tracer = Tracer(enabled=False)

        def hammer():
            for i in range(1, 2001):
                tracer.begin_order("p00", i, "S", i, i, "p00")
                tracer.span("p00", i, tracing.MATCH, i, i, "engine")

        # Warm up so the measurement sees only steady-state behaviour.
        hammer()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        hammer()  # locals die on return, so residual growth means leakage
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert after - before == 0


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer = make_completed_tracer()
        path = tmp_path / "traces.jsonl"
        written = tracer.dump_jsonl(path)
        assert written == 1
        loaded = Tracer.load_jsonl(path)
        assert len(loaded) == 1
        assert loaded[0].to_dict() == tracer.get("p00", 1).to_dict()

    def test_dumps_is_deterministic(self):
        assert make_completed_tracer().dumps_jsonl() == make_completed_tracer().dumps_jsonl()

    def test_load_traces_helper(self):
        text = make_completed_tracer().dumps_jsonl()
        traces = load_traces(text.splitlines())
        assert traces[0].winning_gateway == "g01"

    def test_completed_only_filter(self):
        tracer = make_completed_tracer()
        tracer.begin_order("p01", 2, "SYM1", 50, 50, "p01")  # never completes
        assert len(tracer.all_traces()) == 2
        assert len(tracer.completed_traces()) == 1
        assert tracer.dumps_jsonl(completed_only=True).count("\n") == 1

    def test_all_traces_sorted_by_submit_time(self):
        tracer = Tracer()
        tracer.begin_order("p01", 5, "S", 300, 300, "p01")
        tracer.begin_order("p00", 9, "S", 100, 100, "p00")
        assert [t.client_order_id for t in tracer.all_traces()] == [9, 5]
