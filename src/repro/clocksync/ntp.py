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
    """Midpoint-of-one-exchange estimator (optionally averaging a few).

    Parameters
    ----------
    samples_to_average:
        NTP implementations keep a short filter register; averaging a
        handful of recent exchanges smooths but does not remove the
        path-asymmetry error.
    """

    def __init__(self, samples_to_average: int = 1) -> None:
        if samples_to_average < 1:
            raise ValueError(f"need at least one sample, got {samples_to_average}")
        self.samples_to_average = samples_to_average

    def estimate(
        self,
        forward: ProbeColumns,
        reverse: ProbeColumns,
        rate_hint_ppb: int = 0,
    ) -> SyncEstimate:
        """Estimate from the most recent exchange(s), unfiltered.

        ``rate_hint_ppb`` is accepted for interface compatibility and
        ignored: NTP does not detrend within a poll.
        """
        if not forward or not reverse:
            raise EstimationError(
                f"need probes in both directions, got {len(forward)} forward / {len(reverse)} reverse"
            )
        n = min(self.samples_to_average, len(forward), len(reverse))
        offsets = ((forward.difference[-n:] - reverse.difference[-n:]) / 2.0).tolist()
        return SyncEstimate(
            offset_ns=int(round(sum(offsets) / n)),
            rate_ppb=0,
            ref_raw_ns=int(forward.recv_local[-1]),
            samples_used=2 * n,
        )
