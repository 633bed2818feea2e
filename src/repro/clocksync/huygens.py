"""Huygens-style clock offset estimation.

The real Huygens system (Geng et al., NSDI '18) synchronizes clocks to
tens of nanoseconds using three ideas: coded probes that detect and
discard queued samples, a support-vector-machine fit of the surviving
samples' delay envelope, and a mesh-wide "network effect" correction.
CloudEx consumes only the *output* of Huygens -- per-host clock
estimates good to ~159 ns at p99 -- so this module reproduces the
estimation mechanism at the fidelity that matters for the exchange.

The key observation: one-way delays are a hard propagation floor plus
non-negative queueing.  Writing ``theta(t) = raw_client(t) - raw_ref(t)``,

- forward probes (ref -> client) observe ``fwd_i = theta(t_i) + d_i``,
- reverse probes (client -> ref) observe ``rev_j = -theta(t_j) + d_j``,

so after *detrending* by the current drift estimate (the SVM's slope
role), ``min(fwd) ~= theta(t_mid) + floor`` and
``min(rev) ~= -theta(t_mid) + floor``; the floor is symmetric on one
link and cancels in ``theta = (min(fwd) - min(rev)) / 2``.  The drift
estimate itself comes from regressing successive window estimates (see
:class:`repro.clocksync.service.ClockSyncService`), closing the loop:
better rate -> cleaner detrend -> sharper minima -> better offset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clocksync.probes import ProbeColumns

_BILLION = 1_000_000_000


class EstimationError(ValueError):
    """Raised when a window holds too few probes to estimate from."""


@dataclass(frozen=True)
class SyncEstimate:
    """A clock-difference estimate ``theta(raw) ~= offset + rate * (raw - ref)``.

    ``theta`` is client-raw minus reference time; disciplining the
    client means *subtracting* this line from its raw clock.

    Attributes
    ----------
    offset_ns:
        Estimated clock difference at ``ref_raw_ns``.
    rate_ppb:
        Relative frequency error, parts per billion (echoed from the
        caller's hint for Huygens; fitted across rounds by the sync
        service).
    ref_raw_ns:
        Client raw timestamp the offset is anchored to.
    samples_used:
        Number of probe observations contributing.
    """

    offset_ns: int
    rate_ppb: int
    ref_raw_ns: int
    samples_used: int

    def theta_at(self, raw_ns: int) -> int:
        """Evaluate the estimated difference at client raw time ``raw_ns``."""
        return self.offset_ns + (self.rate_ppb * (raw_ns - self.ref_raw_ns)) // _BILLION


class HuygensEstimator:
    """Detrended minimum-envelope estimator over filtered probes.

    Parameters
    ----------
    min_samples:
        Minimum probes required in *each* direction.
    """

    def __init__(self, min_samples: int = 3) -> None:
        if min_samples < 1:
            raise ValueError(f"need at least one sample, got {min_samples}")
        self.min_samples = min_samples

    def estimate(
        self,
        forward: ProbeColumns,
        reverse: ProbeColumns,
        rate_hint_ppb: int = 0,
    ) -> SyncEstimate:
        """Estimate the clock difference at the window midpoint.

        ``forward`` are reference->client probes, ``reverse`` are
        client->reference probes, both carrying raw-clock timestamps.
        ``rate_hint_ppb`` is the current drift estimate used to
        detrend within the window (0 on the first round).
        """
        if len(forward) < self.min_samples or len(reverse) < self.min_samples:
            raise EstimationError(
                f"need >= {self.min_samples} probes per direction, got "
                f"{len(forward)} forward / {len(reverse)} reverse"
            )
        # All x-coordinates in client raw time: arrival instant for
        # forward probes, transmission instant for reverse ones.
        fwd_x, rev_x = forward.recv_local, reverse.sent_local
        x_lo = int(min(fwd_x.min(), rev_x.min()))
        x_hi = int(max(fwd_x.max(), rev_x.max()))
        x_ref = (x_lo + x_hi) // 2
        if abs(rate_hint_ppb) * (x_hi - x_lo) >= 2**63:
            raise OverflowError("rate hint times window span does not fit int64")

        # Detrend so every sample reflects theta at x_ref; the minimum
        # then isolates the (symmetric) delay floor.
        min_fwd = int((forward.difference - (rate_hint_ppb * (fwd_x - x_ref)) // _BILLION).min())
        min_rev = int((reverse.difference + (rate_hint_ppb * (rev_x - x_ref)) // _BILLION).min())
        theta = (min_fwd - min_rev) // 2
        return SyncEstimate(
            offset_ns=theta,
            rate_ppb=rate_hint_ppb,
            ref_raw_ns=x_ref,
            samples_used=len(forward) + len(reverse),
        )
