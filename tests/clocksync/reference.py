"""The per-probe implementations the columnar ones replaced, kept as the
reference the tests compare against: a probe is one ``Probe`` tuple, an
estimator reads a list."""

from typing import NamedTuple, Sequence

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


def list_ntp(forward: Sequence[Probe], reverse: Sequence[Probe]) -> SyncEstimate:
    last_fwd, last_rev = forward[-1], reverse[-1]
    return SyncEstimate(
        offset_ns=int(round((last_fwd.difference - last_rev.difference) / 2.0)),
        rate_ppb=0,
        ref_raw_ns=last_fwd.recv_local,
        samples_used=2,
    )
