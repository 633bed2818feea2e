"""The hold/release (H/R) buffer: simultaneous market-data release.

Paper §2.1/§2.2: each gateway holds every piece of market data until
its engine-prescribed release time ``t_R = t_M + d_h``; with precisely
synchronized clocks, identical release times mean all participants see
the data simultaneously.  A piece that *arrives after* its release time
is released immediately but was unfairly disseminated: some gateways
may have already released it.

Each handled piece produces a :class:`HoldReleaseReport` (sent back to
the engine) carrying the hold duration -- the paper's *releasing
delay*, Fig. 4b/5b's y-axis -- and the late flag that feeds both the
outbound-unfairness metric (a piece is unfair if >=1 gateway was late)
and the DDP controller for ``d_h``.

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

from typing import Callable, Dict, Optional

from repro.core.marketdata import MarketDataPiece
from repro.core.messages import HoldReleaseReport
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
        Called with a :class:`HoldReleaseReport` per piece; the gateway
        forwards these to the engine.
    events:
        Optional :class:`repro.obs.events.EventLog`; every late piece
        (an unfair dissemination) is logged as a WARNING with its
        lateness, so rare fairness violations leave replayable evidence.
    hold_early:
        False releases every piece on arrival with zero hold; nothing
        is then ever pending, so :meth:`flush` finds nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: HostClock,
        gateway_id: str,
        release: Callable[[MarketDataPiece, int], None],
        report: Optional[Callable[[HoldReleaseReport], None]] = None,
        events=None,
        hold_early: bool = True,
    ) -> None:
        self.sim = sim
        self.clock = clock
        self.gateway_id = gateway_id
        self.release = release
        self.report = report
        self.events = events
        self.hold_early = hold_early
        self.held_count = 0
        self.late_count = 0
        self.total_hold_ns = 0
        # md seq -> pending release event, so a crashing gateway can
        # drop its buffered state (repro.chaos rejoin path).
        self._pending: Dict[int, Event] = {}
        #: Optional callback receiving the list of md seqs discarded by
        #: :meth:`flush`.  The cluster wires it to the metrics
        #: collector so pieces orphaned by a gateway crash are
        #: finalized with partial reports instead of leaking forever.
        self.flush_listener: Optional[Callable[[list], None]] = None

    def offer(self, piece: MarketDataPiece) -> None:
        """Accept a piece from the engine; hold or release immediately.

        Arrival strictly *after* ``release_at`` is an unfair
        dissemination; arrival exactly at the release instant is on
        time (zero hold, zero lateness) -- the gateway releases at
        ``t_R`` either way, simultaneously with every other gateway.
        This boundary holds whatever ``hold_early`` says.
        """
        arrival_local = self.clock.now()
        if arrival_local > piece.release_at:
            # Arrived past its release time: unfair dissemination.
            self._release(piece, hold_ns=0, late=True, lateness_ns=arrival_local - piece.release_at)
            return
        if arrival_local == piece.release_at or not self.hold_early:
            self._release(piece, hold_ns=0, late=False, lateness_ns=0)
            return
        hold_ns = piece.release_at - arrival_local
        self._pending[piece.seq] = self.clock.schedule_at_local(
            piece.release_at, self._release, piece, hold_ns, False, 0
        )

    def flush(self) -> int:
        """Drop every held-but-unreleased piece (a crash loses buffered
        state; the engine's H/R aggregation never hears a *report* for
        them, but the simulation-level ``flush_listener`` does, so the
        metrics collector can finalize the pieces with partial
        reports).  Returns how many were discarded."""
        flushed = len(self._pending)
        for event in self._pending.values():
            event.cancel()
        seqs = list(self._pending)
        self._pending.clear()
        if self.flush_listener is not None and seqs:
            self.flush_listener(seqs)
        return flushed

    def _release(
        self, piece: MarketDataPiece, hold_ns: int, late: bool, lateness_ns: int
    ) -> None:
        self._pending.pop(piece.seq, None)
        self.held_count += 1
        self.total_hold_ns += hold_ns
        if late:
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
        self.release(piece, self.clock.now())
        if self.report is not None:
            self.report(
                HoldReleaseReport(
                    gateway_id=self.gateway_id,
                    md_seq=piece.seq,
                    late=late,
                    lateness_ns=lateness_ns,
                    hold_ns=hold_ns,
                )
            )

    def mean_hold_us(self) -> float:
        """Average releasing delay at this gateway, microseconds."""
        if self.held_count == 0:
            return 0.0
        return self.total_hold_ns / self.held_count / 1_000

    def late_ratio(self) -> float:
        """Fraction of pieces this gateway received past release time."""
        if self.held_count == 0:
            return 0.0
        return self.late_count / self.held_count

    def __repr__(self) -> str:
        return (
            f"HoldReleaseBuffer({self.gateway_id!r}, handled={self.held_count}, "
            f"late={self.late_count})"
        )
