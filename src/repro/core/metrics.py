"""Central metrics collection.

The collector is a simulation-level observer with access to ground
truth (true times), so it can compute everything the paper reports:

- **submission latency**: participant submit -> matching engine
  receives the (winning replica of the) order (Table 1, Fig. 6a).
- **end-to-end latency**: participant submit -> participant receives
  the order confirmation (Table 1).
- **inbound unfairness ratio** and **queuing delay** from sequencer
  samples (Figs. 4a/5a).
- **outbound unfairness ratio** and **releasing delay** from gateway
  H/R reports (Figs. 4b/5b): a piece is unfairly disseminated iff >= 1
  gateway received it after its release time.  A report reaches
  :meth:`MetricsCollector.record_md_report` through the engine, in a
  gateway's batch, when an outbound DDP controller reads it, else
  straight from the gateway at the piece's arrival.  Triples still
  queued at a gateway at teardown never arrive: a piece none of whose
  reports arrived counts in ``md_pieces_unreported``, one with some in
  ``md_pieces_partial``.
- **throughput**: orders processed by the matching engine per second.

Components push events in; nothing here feeds back into the exchange
(DDP consumes its own sample streams inside the exchange server).

Operational counts (messages dropped, ROS duplicates, DDP moves, late
pieces, ...) are *not* pushed: each is a plain int on the component
that observes the fact, and the collector only **names** it with a
reader (:meth:`MetricsCollector.count`) and **windows** it
(:meth:`MetricsCollector.reset_window` takes every reader's baseline).
Nothing is counted twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.sequencer import SequencerSample
from repro.sim.timeunits import MICROSECOND, SECOND


@dataclass
class LatencySummary:
    """p50/p99/p99.9 in microseconds, as the paper tabulates."""

    count: int
    p50_us: float
    p99_us: float
    p999_us: float
    mean_us: float

    @property
    def is_empty(self) -> bool:
        """True for the no-samples sentinel (all fields zero)."""
        return self.count == 0

    @classmethod
    def empty(cls) -> "LatencySummary":
        """The explicit empty-summary sentinel."""
        return cls(count=0, p50_us=0.0, p99_us=0.0, p999_us=0.0, mean_us=0.0)

    @classmethod
    def from_ns(cls, samples_ns: List[int]) -> "LatencySummary":
        array = np.asarray(samples_ns, dtype=np.float64)
        if array.size == 0:
            return cls.empty()
        return cls(
            count=int(array.size),
            p50_us=float(np.percentile(array, 50)) / MICROSECOND,
            p99_us=float(np.percentile(array, 99)) / MICROSECOND,
            p999_us=float(np.percentile(array, 99.9)) / MICROSECOND,
            mean_us=float(array.mean()) / MICROSECOND,
        )


@dataclass
class _MdPieceState:
    """Aggregation of one market-data piece across gateways."""

    expected_reports: int
    reports: int = 0
    any_late: bool = False


class MetricsCollector:
    """Sink for everything measurable about one cluster run."""

    def __init__(self) -> None:
        # (participant, client_order_id) -> timestamps (true time).
        self._submitted: Dict[Tuple[str, int], int] = {}
        self.submission_latencies_ns: List[int] = []
        self.e2e_latencies_ns: List[int] = []
        # participant -> (count, sum of submission latencies): the
        # cross-participant symmetry view of "fair access".
        self._submission_by_participant: Dict[str, Tuple[int, int]] = {}
        # Sequencer aggregates (summed over shards).
        self.orders_released: int = 0
        self.out_of_sequence: int = 0
        self.out_of_sequence_true: int = 0
        self.queuing_delays_ns: List[int] = []
        # Market data.
        self._md: Dict[int, _MdPieceState] = {}
        self.md_pieces_finalized: int = 0
        self.md_pieces_unfair: int = 0
        # Pieces finalized with fewer reports than the fan-out (a
        # gateway was down when the piece arrived, or the run ended
        # first; run teardown closes them), and
        # pieces finalized with no reports at all (no fairness
        # information; excluded from the unfairness ratio).
        self.md_pieces_partial: int = 0
        self.md_pieces_unreported: int = 0
        self.releasing_delays_ns: List[int] = []
        # Engine throughput accounting.
        self.orders_matched: int = 0
        self.trades_executed: int = 0
        self.replicas_received: int = 0
        self.rejects: int = 0
        # Window for throughput (set by the cluster runner).
        self.measure_start_true: int = 0
        self.measure_end_true: int = 0
        # Operational counts: name -> reader of the cumulative value a
        # component keeps, and each reader's value at the last
        # reset_window().
        self._readers: Dict[str, Callable[[], float]] = {}
        self._baseline: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Operational counts (owned by components, named and windowed here)
    # ------------------------------------------------------------------
    def count(self, name: str, read: Callable[[], float]) -> None:
        """Name a count some component keeps; ``read`` returns its
        cumulative value.  Called once per name, at wiring time."""
        if name in self._readers:
            raise ValueError(f"count {name!r} is already named")
        self._readers[name] = read

    def counts(self) -> Dict[str, float]:
        """Every named count's cumulative value, as floats sorted by name."""
        return {name: float(self._readers[name]()) for name in sorted(self._readers)}

    def windowed(self, name: str) -> float:
        """A named count's increase since the last :meth:`reset_window`
        (0 for a name nobody registered)."""
        read = self._readers.get(name)
        return read() - self._baseline.get(name, 0) if read is not None else 0

    def messages_dropped(self) -> int:
        """Messages dropped at downed hosts in the current window."""
        return int(self.windowed("net.dropped_while_down"))

    def reset_window(self, now_true: int) -> None:
        """Start a fresh measurement window at ``now_true``.

        Zeroes all aggregates and sample lists while keeping in-flight
        tracking (submitted orders awaiting receipt/confirmation,
        partially-reported market-data pieces), so benchmarks can run
        a warm-up period and then measure steady state.
        """
        self.submission_latencies_ns.clear()
        self.e2e_latencies_ns.clear()
        self._submission_by_participant.clear()
        self.orders_released = 0
        self.out_of_sequence = 0
        self.out_of_sequence_true = 0
        self.queuing_delays_ns.clear()
        self.md_pieces_finalized = 0
        self.md_pieces_unfair = 0
        self.md_pieces_partial = 0
        self.md_pieces_unreported = 0
        self.releasing_delays_ns.clear()
        self.orders_matched = 0
        self.trades_executed = 0
        self.replicas_received = 0
        self.rejects = 0
        self._baseline = {name: read() for name, read in self._readers.items()}
        self.measure_start_true = now_true
        self.measure_end_true = now_true

    # ------------------------------------------------------------------
    # Order lifecycle
    # ------------------------------------------------------------------
    def record_submission(self, participant: str, client_order_id: int, now_true: int) -> None:
        self._submitted[(participant, client_order_id)] = now_true

    def record_engine_receipt(
        self, participant: str, client_order_id: int, now_true: int
    ) -> None:
        """The winning replica finished engine ingress processing."""
        submitted = self._submitted.get((participant, client_order_id))
        if submitted is not None:
            latency = now_true - submitted
            self.submission_latencies_ns.append(latency)
            count, total = self._submission_by_participant.get(participant, (0, 0))
            self._submission_by_participant[participant] = (count + 1, total + latency)

    def record_confirmation(
        self, participant: str, client_order_id: int, now_true: int
    ) -> None:
        """The participant received the order confirmation.

        Only the *first* confirmation of an order counts toward the
        end-to-end latency -- later confirmations for the same id
        (e.g. the cancellation of a long-resting order) are lifecycle
        events, not submission round-trips.  Popping also bounds the
        tracking table's memory.
        """
        submitted = self._submitted.pop((participant, client_order_id), None)
        if submitted is not None:
            self.e2e_latencies_ns.append(now_true - submitted)

    def unconfirmed_orders(self) -> List[Tuple[str, int]]:
        """Orders submitted but never confirmed, as (participant, id).

        The entries still in the submission-tracking table are exactly
        the orders whose first confirmation never arrived -- the chaos
        invariant checker starts its order-loss accounting here.
        """
        return list(self._submitted.keys())

    # ------------------------------------------------------------------
    # Sequencer
    # ------------------------------------------------------------------
    def record_sequencer_sample(self, sample: SequencerSample) -> None:
        self.orders_released += 1
        if sample.out_of_sequence:
            self.out_of_sequence += 1
        if sample.out_of_sequence_true:
            self.out_of_sequence_true += 1
        self.queuing_delays_ns.append(sample.queuing_delay_ns)

    # ------------------------------------------------------------------
    # Market data
    # ------------------------------------------------------------------
    def register_md_piece(self, seq: int, expected_reports: int) -> None:
        """The engine disseminated piece ``seq`` to N gateways."""
        self._md[seq] = _MdPieceState(expected_reports=expected_reports)

    def record_md_report(self, seq: int, late: bool, hold_ns: int) -> Optional[bool]:
        """Record one gateway's report.

        Returns the piece's unfair flag once all expected gateways have
        reported (None before then) -- the engine feeds that finalized
        per-piece sample to the outbound DDP controller.
        """
        state = self._md.get(seq)
        if state is None:
            return None
        state.reports += 1
        self.releasing_delays_ns.append(hold_ns)
        if late:
            state.any_late = True
        if state.reports >= state.expected_reports:
            self.md_pieces_finalized += 1
            if state.any_late:
                self.md_pieces_unfair += 1
            del self._md[seq]
            return state.any_late
        return None

    def _finalize_partial(self, seq: int, state: _MdPieceState) -> Optional[bool]:
        """Close out a piece that will never see its full fan-out.

        Returns the unfair flag when the piece carried >= 1 report (a
        valid, if partial, fairness sample), None when it carried none
        (no information -- counted separately, never fed to DDP).
        """
        del self._md[seq]
        if state.reports == 0:
            self.md_pieces_unreported += 1
            return None
        self.md_pieces_partial += 1
        if state.any_late:
            self.md_pieces_unfair += 1
        return state.any_late

    def finalize_partial_md(self) -> int:
        """Finalize every still-open piece with the reports it has
        (run teardown).  Bounds ``_md`` memory when a piece reached a
        gateway that was down, or its report was still queued at a
        gateway.  Returns how many pieces were closed."""
        pending = list(self._md.items())
        for seq, state in pending:
            self._finalize_partial(seq, state)
        return len(pending)

    def open_md_pieces(self) -> int:
        """Pieces still awaiting gateway reports."""
        return len(self._md)

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    def inbound_unfairness_ratio(self) -> float:
        """Fraction of orders processed out of (measured) sequence."""
        if self.orders_released == 0:
            return 0.0
        return self.out_of_sequence / self.orders_released

    def inbound_unfairness_ratio_true(self) -> float:
        """Out-of-sequence fraction against ground-truth stamping order."""
        if self.orders_released == 0:
            return 0.0
        return self.out_of_sequence_true / self.orders_released

    def outbound_unfairness_ratio(self) -> float:
        """Fraction of market-data pieces late at >= 1 gateway.

        Partially-reported pieces (gateway crash) still count: at
        least one gateway observed the release.  Unreported pieces
        carry no fairness information and are excluded.
        """
        denominator = self.md_pieces_finalized + self.md_pieces_partial
        if denominator == 0:
            return 0.0
        return self.md_pieces_unfair / denominator

    def mean_queuing_delay_us(self) -> float:
        """Average sequencer queuing delay (Fig. 4a/5a y-axis)."""
        if not self.queuing_delays_ns:
            return 0.0
        return float(np.mean(self.queuing_delays_ns)) / MICROSECOND

    def mean_releasing_delay_us(self) -> float:
        """Average H/R hold time (Fig. 4b/5b y-axis)."""
        if not self.releasing_delays_ns:
            return 0.0
        return float(np.mean(self.releasing_delays_ns)) / MICROSECOND

    def submission_summary(self) -> LatencySummary:
        return LatencySummary.from_ns(self.submission_latencies_ns)

    def submission_mean_by_participant_us(self) -> Dict[str, float]:
        """Mean submission latency per participant, in microseconds.

        The spread of these means is the cross-participant fairness
        view: on equalized paths every participant should see the same
        service (see tests/integration/test_fair_access.py).
        """
        return {
            participant: total / count / MICROSECOND
            for participant, (count, total) in self._submission_by_participant.items()
            if count > 0
        }

    def e2e_summary(self) -> LatencySummary:
        return LatencySummary.from_ns(self.e2e_latencies_ns)

    def throughput_per_s(self) -> float:
        """Matched orders per second over the measurement window."""
        window = self.measure_end_true - self.measure_start_true
        if window <= 0:
            return 0.0
        return self.orders_matched * SECOND / window

    def summary(self) -> Dict[str, float]:
        """One flat dict with the headline numbers (for reports/tests)."""
        submission = self.submission_summary()
        e2e = self.e2e_summary()
        return {
            "orders_matched": float(self.orders_matched),
            "trades_executed": float(self.trades_executed),
            "replicas_received": float(self.replicas_received),
            "duplicates_dropped": float(self.windowed("ros.duplicates_dropped")),
            "messages_dropped": float(self.messages_dropped()),
            "throughput_per_s": self.throughput_per_s(),
            "submission_p50_us": submission.p50_us,
            "submission_p99_us": submission.p99_us,
            "submission_p999_us": submission.p999_us,
            "e2e_p50_us": e2e.p50_us,
            "md_pieces_partial": float(self.md_pieces_partial),
            "md_pieces_unreported": float(self.md_pieces_unreported),
            "inbound_unfairness": self.inbound_unfairness_ratio(),
            "inbound_unfairness_true": self.inbound_unfairness_ratio_true(),
            "outbound_unfairness": self.outbound_unfairness_ratio(),
            "mean_queuing_delay_us": self.mean_queuing_delay_us(),
            "mean_releasing_delay_us": self.mean_releasing_delay_us(),
        }

    def __repr__(self) -> str:
        return (
            f"MetricsCollector(orders={self.orders_matched}, trades={self.trades_executed}, "
            f"md={self.md_pieces_finalized})"
        )
