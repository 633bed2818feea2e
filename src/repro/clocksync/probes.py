"""Probe exchange records and the coded-probe filter.

A probe exchange between a client clock C and the reference clock R
yields two one-way observations:

- forward (R -> C):  ``fwd = recv_C - send_R = theta + d_fwd``
- reverse (C -> R):  ``rev = recv_R - send_C = -theta + d_rev``

where ``theta = raw_C - raw_R`` is the instantaneous clock difference
and ``d_*`` are one-way network delays.  Because delays are
non-negative and their *minimum* (the un-queued propagation floor) is
symmetric on a single link, the lower envelopes of ``fwd`` and ``rev``
bracket ``theta`` -- the basis of the Huygens estimator.

Huygens additionally sends *coded probes*: back-to-back probe pairs
with a known transmit spacing.  If the receive spacing differs beyond
a small threshold, at least one probe of the pair was queued in the
network and the pair is discarded.  :func:`coded_probe_filter`
implements that test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class ProbeExchange:
    """One timestamped probe observation in a single direction.

    Attributes
    ----------
    sent_local:
        Raw local clock of the *sender* when the probe left.
    recv_local:
        Raw local clock of the *receiver* when the probe arrived.
    sent_true:
        True simulation time of transmission (held for diagnostics
        only -- estimators must not read it).
    """

    sent_local: int
    recv_local: int
    sent_true: int

    @property
    def difference(self) -> int:
        """``recv_local - sent_local``: clock difference plus path delay."""
        return self.recv_local - self.sent_local


def coded_probe_filter(
    pairs: Sequence[Tuple[ProbeExchange, ProbeExchange]],
    spacing_tolerance_ns: int,
) -> List[ProbeExchange]:
    """Keep the first probe of each pair whose spacing survived the network.

    Parameters
    ----------
    pairs:
        Back-to-back probe pairs ``(first, second)`` sent with a fixed
        transmit spacing.
    spacing_tolerance_ns:
        Maximum allowed deviation between transmit spacing and receive
        spacing.  Pairs deviating more were queued and are dropped.

    Returns
    -------
    The surviving probes (first of each clean pair), preserving order.
    """
    if spacing_tolerance_ns < 0:
        raise ValueError(f"tolerance must be non-negative, got {spacing_tolerance_ns}")
    survivors: List[ProbeExchange] = []
    for first, second in pairs:
        tx_spacing = second.sent_local - first.sent_local
        rx_spacing = second.recv_local - first.recv_local
        if abs(rx_spacing - tx_spacing) <= spacing_tolerance_ns:
            survivors.append(first)
    return survivors
