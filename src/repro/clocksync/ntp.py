"""NTP-style baseline estimator.

The paper's footnote 3: "When we tried CloudEx with NTP, the standard
in software clock synchronization, we found ~10 ms clock offsets
between gateways.  These offsets are much larger than CloudEx's
gateway-to-matching-engine latencies, making NTP unsuitable."

NTP's offset estimate from a single client/server exchange is

    offset = ((t2 - t1) + (t3 - t4)) / 2

i.e. the midpoint of one forward and one reverse difference, with *no*
filtering of queueing delay and *no* frequency estimation per round.
Its error is therefore half the forward/reverse delay asymmetry of the
full server path -- milliseconds when the server is several (variable)
network hops away -- rather than the nanoseconds a filtered
minimum-envelope achieves on a direct intra-zone path.
"""

from __future__ import annotations

from repro.clocksync.huygens import EstimationError, SyncEstimate
from repro.clocksync.probes import ProbeColumns


class NtpEstimator:
    """Midpoint of the most recent exchange."""

    def estimate(
        self,
        forward: ProbeColumns,
        reverse: ProbeColumns,
        rate_hint_ppb: int = 0,
    ) -> SyncEstimate:
        """Estimate from the last forward and the last reverse probe, unfiltered.

        ``rate_hint_ppb`` is accepted for interface compatibility and
        ignored: NTP does not detrend within a poll.
        """
        if not forward or not reverse:
            raise EstimationError(
                f"need probes in both directions, got {len(forward)} forward / {len(reverse)} reverse"
            )
        offset = float(forward.difference[-1] - reverse.difference[-1]) / 2.0
        return SyncEstimate(
            offset_ns=int(round(offset)),
            rate_ppb=0,
            ref_raw_ns=int(forward.recv_local[-1]),
            samples_used=2,
        )
