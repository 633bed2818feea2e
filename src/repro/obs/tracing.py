"""Per-order lifecycle tracing.

A :class:`Tracer` records one :class:`OrderTrace` per sampled order.
Each trace is a time-ordered list of :class:`Span` marks, one per
pipeline stage the order crossed (Fig. 2's steps):

========================  ====================================================
kind                      recorded when / by
========================  ====================================================
``submit``                the participant hands the order to its client library
``gw_ingress``            a gateway's order handler stamps a replica (one span
                          per ROS replica, ``host`` = the gateway)
``ros_dedup``            a replica clears engine ingress (the *first* such
                          span is the winning replica, later ones are the
                          duplicates the engine discarded; ``detail`` carries
                          the replica's gateway id)
``seq_hold``              the sequencer releases the order after its ``d_s``
                          hold
``match``                 the matching core finished the order (book work +
                          portfolio lock); ``detail`` is the confirmed status
                          (``accepted`` / ``partially_filled`` / ``filled`` /
                          ``cancelled`` / ``rejected``)
``cancel``                the engine answered a client cancel aimed at this
                          order; ``detail`` is the cancel confirmation's status
``hr_hold``               a gateway begins holding the trade confirmation to
                          its release time (``d_h``)
``md_release``            the held confirmation is released to the participant
``confirm_delivery``      the participant receives the order confirmation
========================  ====================================================

Every span carries *both* the true simulator time (``t_true``, ground
truth the real system never sees) and the recording component's
synced-clock estimate (``t_local``), so per-stage clock error is
directly observable: ``t_local - t_true`` is the recording host's
clock error at that instant.  With the trade tape (the ``TradeRecord``
rows of the market-data table, which carry both order ids) a trace is
the exchange's per-order record (paper §6):
:meth:`OrderTrace.lifecycle_is_wellformed` is the surveillance check.

Sampling is deterministic and seed-independent: an order is traced iff
a stable hash of ``participant:client_order_id`` falls below
``sample_rate``, so the same orders are traced across runs and
enabling tracing never perturbs the simulation's RNG streams.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

SUBMIT = "submit"
GW_INGRESS = "gw_ingress"
ROS_DEDUP = "ros_dedup"
SEQ_HOLD = "seq_hold"
MATCH = "match"
CANCEL = "cancel"
HR_HOLD = "hr_hold"
MD_RELEASE = "md_release"
CONFIRM_DELIVERY = "confirm_delivery"

#: The full span taxonomy, in canonical pipeline order.
SPAN_KINDS: Tuple[str, ...] = (
    SUBMIT,
    GW_INGRESS,
    ROS_DEDUP,
    SEQ_HOLD,
    MATCH,
    CANCEL,
    HR_HOLD,
    MD_RELEASE,
    CONFIRM_DELIVERY,
)

#: The submit->confirm critical path (H/R spans are the market-data
#: side-chain and only exist for orders that traded).
CRITICAL_CHAIN: Tuple[str, ...] = (
    SUBMIT,
    GW_INGRESS,
    ROS_DEDUP,
    SEQ_HOLD,
    MATCH,
    CONFIRM_DELIVERY,
)


@dataclass(frozen=True)
class Span:
    """One lifecycle mark: a stage crossing at a point in time."""

    kind: str
    t_true: int
    t_local: int
    host: str
    detail: str = ""

    @property
    def clock_error_ns(self) -> int:
        """The recording host's clock error at this instant."""
        return self.t_local - self.t_true


@dataclass
class OrderTrace:
    """The recorded lifecycle of one order."""

    participant: str
    client_order_id: int
    symbol: str
    spans: List[Span] = field(default_factory=list)

    def add(self, span: Span) -> None:
        self.spans.append(span)

    def first(self, kind: str) -> Optional[Span]:
        for span in self.spans:
            if span.kind == kind:
                return span
        return None

    def spans_of(self, kind: str) -> List[Span]:
        return [span for span in self.spans if span.kind == kind]

    @property
    def completed(self) -> bool:
        """The order confirmation made it back to the participant."""
        return self.first(CONFIRM_DELIVERY) is not None

    @property
    def winning_gateway(self) -> Optional[str]:
        """Gateway of the replica the engine admitted (earliest wins)."""
        winner = self.first(ROS_DEDUP)
        return winner.detail if winner is not None else None

    def ros_margin_ns(self) -> Optional[int]:
        """Winner's engine-arrival lead over the runner-up replica.

        None unless at least two replicas reached engine ingress.
        """
        ros = self.spans_of(ROS_DEDUP)
        if len(ros) < 2:
            return None
        return ros[1].t_true - ros[0].t_true

    def chain(self) -> Optional[List[Span]]:
        """The critical-path spans, monotone in true time, or None if
        the trace is incomplete.

        The ``gw_ingress`` link is the *winning* replica's stamping
        span (matched by gateway id), so consecutive spans are causally
        ordered and stage durations telescope exactly to end-to-end
        latency.
        """
        submit = self.first(SUBMIT)
        winner = self.first(ROS_DEDUP)
        if submit is None or winner is None:
            return None
        gw_span = None
        for span in self.spans:
            if span.kind == GW_INGRESS and span.host == winner.detail:
                gw_span = span
                break
        seq = self.first(SEQ_HOLD)
        match = self.first(MATCH)
        confirm = self.first(CONFIRM_DELIVERY)
        if None in (gw_span, seq, match, confirm):
            return None
        return [submit, gw_span, winner, seq, match, confirm]

    def lifecycle_is_wellformed(self) -> bool:
        """Surveillance check (paper §6): the critical chain is
        complete and ordered in true time, the order was matched
        exactly once, and no host's own clock ran backwards across the
        spans it stamped.  Ground truth orders the chain, so the verdict
        holds under every clock regime and fairness policy; ``t_local``
        is only ever compared with ``t_local`` of the same host.
        """
        chain = self.chain()
        if chain is None or len(self.spans_of(MATCH)) != 1:
            return False
        if any(a.t_true > b.t_true for a, b in zip(chain, chain[1:])):
            return False
        last_local: Dict[str, int] = {}
        for span in sorted(self.spans, key=lambda s: s.t_true):
            if span.t_local < last_local.get(span.host, span.t_local):
                return False
            last_local[span.host] = span.t_local
        return True

    def e2e_ns(self) -> Optional[int]:
        """submit -> confirm_delivery in true time, or None."""
        submit = self.first(SUBMIT)
        confirm = self.first(CONFIRM_DELIVERY)
        if submit is None or confirm is None:
            return None
        return confirm.t_true - submit.t_true

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "participant": self.participant,
            "client_order_id": self.client_order_id,
            "symbol": self.symbol,
            "spans": [
                {
                    "kind": s.kind,
                    "t_true": s.t_true,
                    "t_local": s.t_local,
                    "host": s.host,
                    "detail": s.detail,
                }
                for s in self.spans
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OrderTrace":
        trace = cls(
            participant=payload["participant"],
            client_order_id=payload["client_order_id"],
            symbol=payload["symbol"],
        )
        for s in payload["spans"]:
            trace.add(Span(s["kind"], s["t_true"], s["t_local"], s["host"], s["detail"]))
        return trace

    def __repr__(self) -> str:
        return (
            f"OrderTrace({self.participant}/{self.client_order_id} "
            f"{self.symbol}, spans={len(self.spans)})"
        )


def _hash01(key: str) -> float:
    """Stable map of a string to [0, 1): blake2b, not the salted builtin."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


class Tracer:
    """Records order lifecycles; inert when disabled.

    Parameters
    ----------
    enabled:
        When False every hook is a no-op that allocates nothing.
    sample_rate:
        Fraction of orders to trace, decided per order by a stable
        hash of ``participant:client_order_id`` (deterministic across
        runs, independent of the simulation seed).
    """

    def __init__(self, enabled: bool = True, sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.enabled = enabled
        self.sample_rate = sample_rate
        self.traces: Dict[Tuple[str, int], OrderTrace] = {}
        self.sampled = 0
        self.skipped = 0

    # ------------------------------------------------------------------
    # Recording hooks (the instrumented components' API)
    # ------------------------------------------------------------------
    def wants(self, participant: str, client_order_id: int) -> bool:
        """The deterministic sampling decision for one order."""
        if not self.enabled:
            return False
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return _hash01(f"{participant}:{client_order_id}") < self.sample_rate

    def begin_order(
        self,
        participant: str,
        client_order_id: int,
        symbol: str,
        t_true: int,
        t_local: int,
        host: str,
    ) -> None:
        """Open a trace (records the ``submit`` span) if sampled."""
        if not self.enabled:
            return
        if not self.wants(participant, client_order_id):
            self.skipped += 1
            return
        trace = OrderTrace(participant=participant, client_order_id=client_order_id, symbol=symbol)
        trace.add(Span(SUBMIT, t_true, t_local, host))
        self.traces[(participant, client_order_id)] = trace
        self.sampled += 1

    def span(
        self,
        participant: str,
        client_order_id: int,
        kind: str,
        t_true: int,
        t_local: int,
        host: str,
        detail: str = "",
    ) -> None:
        """Append a span to an open trace; no-op for unsampled orders."""
        if not self.enabled:
            return
        trace = self.traces.get((participant, client_order_id))
        if trace is None:
            return
        trace.add(Span(kind, t_true, t_local, host, detail))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, participant: str, client_order_id: int) -> Optional[OrderTrace]:
        return self.traces.get((participant, client_order_id))

    def all_traces(self) -> List[OrderTrace]:
        """Every trace, sorted by (submit true time, participant, id)."""
        return sorted(
            self.traces.values(),
            key=lambda t: (
                t.spans[0].t_true if t.spans else -1,
                t.participant,
                t.client_order_id,
            ),
        )

    def completed_traces(self) -> List[OrderTrace]:
        """Traces whose confirmation made it back, in submit order."""
        return [t for t in self.all_traces() if t.completed]

    # ------------------------------------------------------------------
    # JSONL export / import
    # ------------------------------------------------------------------
    def dumps_jsonl(self, completed_only: bool = False) -> str:
        """One compact JSON object per line, deterministically ordered."""
        traces = self.completed_traces() if completed_only else self.all_traces()
        return "".join(
            json.dumps(t.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            for t in traces
        )

    def dump_jsonl(self, path, completed_only: bool = False) -> int:
        """Write traces to ``path``; returns the number written."""
        text = self.dumps_jsonl(completed_only=completed_only)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return text.count("\n")

    @staticmethod
    def loads_jsonl(text: str) -> List[OrderTrace]:
        return [OrderTrace.from_dict(json.loads(line)) for line in text.splitlines() if line]

    @staticmethod
    def load_jsonl(path) -> List[OrderTrace]:
        with open(path, "r", encoding="utf-8") as fh:
            return Tracer.loads_jsonl(fh.read())

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, rate={self.sample_rate}, traces={len(self.traces)})"


def load_traces(lines: Iterable[str]) -> List[OrderTrace]:
    """Parse an iterable of JSONL lines into traces."""
    return [OrderTrace.from_dict(json.loads(line)) for line in lines if line.strip()]
