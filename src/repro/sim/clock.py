"""Per-host virtual clocks with drift, offset, and discipline.

Every simulated VM owns a :class:`HostClock`.  The clock's *raw* local
time runs at a slightly wrong rate (drift, parts-per-billion) from a
slightly wrong starting point (boot offset), exactly like a real
machine's TSC/system clock.  A clock-synchronization service (Huygens
or NTP, :mod:`repro.clocksync`) periodically estimates the clock's
error against the reference and installs a *correction*; the
*disciplined* time -- what application code reads via
:meth:`HostClock.now` -- is the raw time minus that correction.

Corrections are linear in raw time (an offset plus a rate), because
estimating and removing the frequency error is what keeps a clock
accurate *between* synchronization rounds: a pure offset correction
with 50 ppm of uncorrected drift would accumulate 100 us of error over
a 2-second sync interval, drowning the ~159 ns precision the paper
reports for Huygens.

The gap between disciplined time and true simulation time is the
*residual synchronization error*, the quantity the paper reports as
"99th percentile clock offsets average around 159 ns" for Huygens and
~10 ms for NTP.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator

_BILLION = 1_000_000_000


class HostClock:
    """A drifting, offsettable clock attached to a simulated host.

    Parameters
    ----------
    sim:
        The simulator supplying true time.
    drift_ppb:
        Rate error in parts per billion.  +1000 means the raw clock
        gains 1 us per second of true time.  Real VM clocks drift on
        the order of 1e4..1e5 ppb.
    offset_ns:
        Initial absolute error at true time zero.
    """

    def __init__(self, sim: Simulator, drift_ppb: int = 0, offset_ns: int = 0) -> None:
        self.sim = sim
        self.drift_ppb = int(drift_ppb)
        self.offset_ns = int(offset_ns)
        # Linear correction: disciplined = raw - (corr0 + rate*(raw - ref)).
        self._corr0_ns: int = 0
        self._corr_rate_ppb: int = 0
        self._corr_ref_raw: int = 0

    # ------------------------------------------------------------------
    # Reading the clock
    # ------------------------------------------------------------------
    def true_now(self) -> int:
        """True simulation time -- not observable by host software."""
        return self.sim.now

    def raw_local(self, true_time_ns: Optional[int] = None) -> int:
        """Raw (undisciplined) local time at ``true_time_ns`` (default: now)."""
        t = self.sim.now if true_time_ns is None else true_time_ns
        return t + self.offset_ns + (self.drift_ppb * t) // _BILLION

    def raw_local_many(self, true_times_ns):
        """:meth:`raw_local` over an int64 numpy column of true times.

        int64 wraps silently where Python ints grow, and ``drift * t``
        passes 2**63 for |t| > ~9e12 ns at 10**6 ppb -- so the multiply
        is split at the second: with ``t = q * 10**9 + r``,
        ``(drift * t) // 10**9 == drift * q + (drift * r) // 10**9``
        exactly, and every term stays inside int64 for |t| <= 10**18
        and |drift| <= 10**9 ppb.
        """
        if self.drift_ppb == 0:
            return true_times_ns + self.offset_ns
        seconds = true_times_ns // _BILLION
        drifted = self.drift_ppb * seconds + (
            self.drift_ppb * (true_times_ns - seconds * _BILLION)
        ) // _BILLION
        return true_times_ns + self.offset_ns + drifted

    def _correction_at_raw(self, raw_ns: int) -> int:
        return self._corr0_ns + (self._corr_rate_ppb * (raw_ns - self._corr_ref_raw)) // _BILLION

    def discipline(self, raw_ns: int) -> int:
        """Map a raw local timestamp to disciplined local time."""
        return raw_ns - self._correction_at_raw(raw_ns)

    def now(self) -> int:
        """Disciplined local time: what ``clock_gettime`` would return.

        Inlines ``discipline(raw_local())`` -- this is the hottest
        read in the simulation (every send, offer, and stamp), and the
        three-call chain showed up in profiles.
        """
        t = self.sim.now
        raw = t + self.offset_ns + (self.drift_ppb * t) // _BILLION
        return raw - self._corr0_ns - (
            self._corr_rate_ppb * (raw - self._corr_ref_raw)
        ) // _BILLION

    def error_ns(self) -> int:
        """Current residual error of the disciplined clock vs true time."""
        return self.now() - self.true_now()

    # ------------------------------------------------------------------
    # Discipline (driven by the clock-sync service)
    # ------------------------------------------------------------------
    def set_correction(self, correction_ns: int) -> None:
        """Install a pure offset correction (clears any rate term)."""
        self._corr0_ns = int(correction_ns)
        self._corr_rate_ppb = 0
        self._corr_ref_raw = self.raw_local()

    def set_linear_correction(self, offset_ns: int, rate_ppb: int, ref_raw_ns: int) -> None:
        """Install a correction of ``offset_ns`` at raw time ``ref_raw_ns``,
        growing at ``rate_ppb`` per raw second thereafter."""
        self._corr0_ns = int(offset_ns)
        self._corr_rate_ppb = int(rate_ppb)
        self._corr_ref_raw = int(ref_raw_ns)

    def slew(self, delta_ns: int) -> None:
        """Adjust the offset term incrementally (NTP-style slewing)."""
        self._corr0_ns += int(delta_ns)

    @property
    def correction_ns(self) -> int:
        """The correction currently applied (at the present instant)."""
        return self._correction_at_raw(self.raw_local())

    # ------------------------------------------------------------------
    # Scheduling by local time
    # ------------------------------------------------------------------
    def local_to_true(self, local_ns: int) -> int:
        """Invert the clock map: true instant at which ``now()`` reads
        ``local_ns``.

        Three unrolled fixed-point rounds per map: exactly the integer of
        the per-round loop in ``tests/sim/reference.py``; ``now()`` then
        reads ``local_ns`` within 1 ns (2 ns under a linear correction)
        for drifts and rates up to 1e5 ppb -- not exact to the ns.
        """
        # Invert discipline: find raw R with R - correction(R) = local.
        # With no rate term the fixed point is exact in one step (the
        # common case: pure-offset corrections and undisciplined
        # clocks); same for a driftless raw clock below.
        corr0, rate, ref = self._corr0_ns, self._corr_rate_ppb, self._corr_ref_raw
        if rate == 0:
            raw = local_ns + corr0
        else:
            raw = local_ns + corr0 + (rate * (local_ns - ref)) // _BILLION
            raw = local_ns + corr0 + (rate * (raw - ref)) // _BILLION
            raw = local_ns + corr0 + (rate * (raw - ref)) // _BILLION
        # Invert raw_local: find true t with t + offset + drift*t = raw.
        base, drift = raw - self.offset_ns, self.drift_ppb
        if drift == 0:
            return base
        t = base - (drift * base) // _BILLION
        t = base - (drift * t) // _BILLION
        return base - (drift * t) // _BILLION

    def schedule_at_local(
        self, local_deadline_ns: int, fn: Callable[..., None], *args: Any, priority: int = 0
    ) -> Event:
        """Schedule ``fn`` when this host's disciplined clock reads
        ``local_deadline_ns``.

        Deadlines already in the host's past fire immediately (at true
        now) -- mirroring a timer armed with an elapsed deadline.
        """
        true_deadline = self.local_to_true(local_deadline_ns)
        if true_deadline < self.sim.now:
            true_deadline = self.sim.now
        return self.sim._push(true_deadline, priority, fn, args)

    def schedule_after_local(
        self, local_delay_ns: int, fn: Callable[..., None], *args: Any, priority: int = 0
    ) -> Event:
        """Schedule ``fn`` after ``local_delay_ns`` on this host's clock."""
        return self.schedule_at_local(self.now() + local_delay_ns, fn, *args, priority=priority)

    def __repr__(self) -> str:
        return (
            f"HostClock(drift_ppb={self.drift_ppb}, offset_ns={self.offset_ns}, "
            f"corr0_ns={self._corr0_ns}, corr_rate_ppb={self._corr_rate_ppb})"
        )
