"""The per-probe implementations the columnar ones replaced, kept as the
reference the tests compare against: a probe is one ``Probe`` tuple, a
coded pair a 2-tuple of them, an estimator reads a list."""

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.clocksync.huygens import SyncEstimate
from repro.clocksync.probes import ProbeColumns

_BILLION = 1_000_000_000


class Probe(NamedTuple):
    sent_local: int
    recv_local: int
    sent_true: int

    @property
    def difference(self) -> int:
        return self.recv_local - self.sent_local


def columns(probes: Sequence[Probe]) -> ProbeColumns:
    """Hand-made probes as the record the estimators read."""
    return ProbeColumns(
        *(np.array([p[i] for p in probes], dtype=np.int64) for i in range(3))
    )


def list_coded_filter(pairs: Sequence[Tuple[Probe, Probe]], spacing_tolerance_ns: int) -> List[Probe]:
    survivors = []
    for first, second in pairs:
        tx_spacing = second.sent_local - first.sent_local
        rx_spacing = second.recv_local - first.recv_local
        if abs(rx_spacing - tx_spacing) <= spacing_tolerance_ns:
            survivors.append(first)
    return survivors


def list_huygens(forward: Sequence[Probe], reverse: Sequence[Probe], rate_hint_ppb: int = 0) -> SyncEstimate:
    fwd_x = [p.recv_local for p in forward]
    rev_x = [p.sent_local for p in reverse]
    x_ref = (min(min(fwd_x), min(rev_x)) + max(max(fwd_x), max(rev_x))) // 2
    min_fwd = min(
        p.difference - (rate_hint_ppb * (x - x_ref)) // _BILLION for p, x in zip(forward, fwd_x)
    )
    min_rev = min(
        p.difference + (rate_hint_ppb * (x - x_ref)) // _BILLION for p, x in zip(reverse, rev_x)
    )
    return SyncEstimate(
        offset_ns=(min_fwd - min_rev) // 2,
        rate_ppb=rate_hint_ppb,
        ref_raw_ns=x_ref,
        samples_used=len(forward) + len(reverse),
    )


def list_ntp(forward: Sequence[Probe], reverse: Sequence[Probe], samples_to_average: int = 1) -> SyncEstimate:
    fwd = list(forward)[-samples_to_average:]
    rev = list(reverse)[-samples_to_average:]
    n = min(len(fwd), len(rev))
    offsets = [(f.difference - r.difference) / 2.0 for f, r in zip(fwd[-n:], rev[-n:])]
    return SyncEstimate(
        offset_ns=int(round(sum(offsets) / len(offsets))),
        rate_ppb=0,
        ref_raw_ns=fwd[-1].recv_local,
        samples_used=2 * n,
    )
