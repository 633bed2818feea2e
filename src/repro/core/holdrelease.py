"""The hold/release (H/R) buffer: simultaneous market-data release.

Paper §2.1/§2.2: each gateway holds every piece of market data until
its engine-prescribed release time ``t_R = t_M + d_h``; with precisely
synchronized clocks, identical release times mean all participants see
the data simultaneously.  A piece that *arrives after* its release time
is released immediately but was unfairly disseminated: some gateways
may have already released it.

Each handled piece produces a report ``(md_seq, late, hold_ns)``: the
hold duration -- the paper's *releasing delay*, Fig. 4b/5b's y-axis --
and the late flag that feeds both the outbound-unfairness metric (a
piece is unfair if >=1 gateway was late) and the DDP controller for
``d_h``.  Only an outbound DDP controller makes the report traffic:
the gateway then queues its triples and sends them to the engine in
batches (one :class:`HoldReleaseReport` per ``HR_REPORT_BATCH`` triples
or ``HR_REPORT_WAIT_US`` after the first was queued); otherwise the
report is a measurement and the gateway hands it to the collector at
arrival, with no link draw.  All three values are known the instant the
piece arrives, so a piece is *settled* then: its counters, its late
WARNING and its report go out at arrival, whether or not it is held.
A held piece then costs a release timer only at a gateway with a
subscriber for its symbol; the timer merely dispenses.  A piece
released on arrival (late, exactly on time, or under
``hold_early=False``) is dispensed first and reported second.

It is the only release buffer for *market data*.  Trade confirmations
do not pass through it: ``Gateway._forward_to_participant`` /
``_release_held`` hold each one to ``release_at`` on a timer of their
own, under every policy (no ``hold_early``) and with no flush on
``rejoin`` -- ROADMAP's scoreboard item, bug 2, which stays open because
fixing it moves the dbo/noop fixtures.

The one outbound decision a fairness policy (:mod:`repro.fairness`)
makes is ``hold_early``: hold a piece that arrives before ``release_at``
until then (the paper), or release it on arrival (DBO and the no-op
baseline, which have no dissemination story).  Lateness, reports, the
late-piece WARNING and ``late_count`` (which the cluster's collector
reads as ``hr.late_pieces``) are the same code either way.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.core.marketdata import MarketDataPiece
from repro.sim.clock import HostClock
from repro.sim.engine import Event, Simulator


class HoldReleaseBuffer:
    """One gateway's H/R buffer.

    Parameters
    ----------
    sim, clock:
        Simulator and the owning gateway's disciplined clock.
    gateway_id:
        For report attribution.
    release:
        Called with ``(piece, released_local)`` when the piece is
        dispensed to this gateway's participants.
    report:
        Called with ``(md_seq, late, hold_ns)`` per piece, at arrival:
        the gateway's batching queue or the collector's
        ``record_md_report``.
    events:
        Optional :class:`repro.obs.events.EventLog`; every late piece
        (an unfair dissemination) is logged as a WARNING with its
        lateness, so rare fairness violations leave replayable evidence.
    hold_early:
        False releases every piece on arrival with zero hold; nothing
        is then ever pending, so :meth:`flush` finds nothing.
    subscribers:
        The owning gateway's ``symbol -> subscribers`` map, read at each
        arrival: a held piece arms its release timer only when its
        symbol maps to a non-empty entry.  None (a buffer on its own)
        arms one for every held piece.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: HostClock,
        gateway_id: str,
        release: Callable[[MarketDataPiece, int], None],
        report: Optional[Callable[[int, bool, int], None]] = None,
        events=None,
        hold_early: bool = True,
        subscribers: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.sim = sim
        self.clock = clock
        self.gateway_id = gateway_id
        self.release = release
        self.report = report
        self.events = events
        self.hold_early = hold_early
        self.subscribers = subscribers
        self.held_count = 0
        self.late_count = 0
        # md seq -> pending dispense, so a crashing gateway can drop its
        # buffered state (repro.chaos rejoin path).
        self._pending: Dict[int, Event] = {}

    def offer(self, piece: MarketDataPiece) -> None:
        """Accept a piece from the engine and settle it.

        Arrival strictly *after* ``release_at`` is an unfair
        dissemination; arrival exactly at the release instant is on
        time (zero hold, zero lateness) -- the gateway releases at
        ``t_R`` either way, simultaneously with every other gateway.
        This boundary holds whatever ``hold_early`` says.
        """
        arrival_local = self.clock.now()
        hold_ns = piece.release_at - arrival_local
        self.held_count += 1
        if hold_ns > 0 and self.hold_early:
            subscribers = self.subscribers
            if subscribers is None or subscribers.get(piece.symbol):
                self._pending[piece.seq] = self.clock.schedule_at_local(
                    piece.release_at, self._release, piece
                )
            if self.report is not None:
                self.report(piece.seq, False, hold_ns)
            return
        lateness_ns = -hold_ns if hold_ns < 0 else 0
        if lateness_ns:
            # Arrived past its release time: unfair dissemination.
            self.late_count += 1
            if self.events is not None:
                from repro.obs.events import Severity

                self.events.emit(
                    self.sim.now,
                    Severity.WARNING,
                    self.gateway_id,
                    "hr.late_release",
                    f"md piece {piece.seq} arrived {lateness_ns} ns past release",
                    md_seq=piece.seq,
                    symbol=piece.symbol,
                    lateness_ns=lateness_ns,
                )
        self.release(piece, arrival_local)
        if self.report is not None:
            self.report(piece.seq, lateness_ns > 0, 0)

    def flush(self) -> int:
        """Cancel every pending dispense (a crash loses buffered state).

        Every piece was reported when it arrived and nothing is sent;
        only this gateway's subscribers miss the pieces.  (Report
        triples the gateway still had queued for the engine are its own
        state: ``Gateway.rejoin`` drops them beside this call.)  Returns
        how many dispenses were cancelled."""
        flushed = len(self._pending)
        for event in self._pending.values():
            event.cancel()
        self._pending.clear()
        return flushed

    def _release(self, piece: MarketDataPiece) -> None:
        """A held piece's release timer fired: dispense it."""
        self._pending.pop(piece.seq, None)
        self.release(piece, self.clock.now())

    def __repr__(self) -> str:
        return (
            f"HoldReleaseBuffer({self.gateway_id!r}, handled={self.held_count}, "
            f"late={self.late_count})"
        )
