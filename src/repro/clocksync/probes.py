"""Columnar probe records.

A probe exchange between a client clock C and the reference clock R
yields two one-way observations:

- forward (R -> C):  ``fwd = recv_C - send_R = theta + d_fwd``
- reverse (C -> R):  ``rev = recv_R - send_C = -theta + d_rev``

where ``theta = raw_C - raw_R`` is the instantaneous clock difference
and ``d_*`` are one-way network delays.  Because delays are
non-negative and their *minimum* (the un-queued propagation floor) is
symmetric on a single link, the lower envelopes of ``fwd`` and ``rev``
bracket ``theta`` -- the basis of the Huygens estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True, slots=True, eq=False)
class ProbeColumns:
    """Timestamped probes of one direction, one int64 column per field.

    Attributes
    ----------
    sent_local:
        Raw local clock of the *sender* when each probe left.
    recv_local:
        Raw local clock of the *receiver* when it arrived.
    sent_true:
        True simulation time of transmission (held for diagnostics
        only -- estimators must not read it).
    """

    sent_local: np.ndarray
    recv_local: np.ndarray
    sent_true: np.ndarray

    @classmethod
    def concat(cls, windows: Sequence["ProbeColumns"]) -> "ProbeColumns":
        """The probes of ``windows`` in order (of none: an empty record)."""
        if not windows:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty, empty)
        return cls(
            np.concatenate([w.sent_local for w in windows]),
            np.concatenate([w.recv_local for w in windows]),
            np.concatenate([w.sent_true for w in windows]),
        )

    def __len__(self) -> int:
        return len(self.sent_local)

    def __getitem__(self, index) -> "ProbeColumns":
        """The probes a slice or boolean mask selects, order preserved."""
        return ProbeColumns(self.sent_local[index], self.recv_local[index], self.sent_true[index])

    @property
    def difference(self) -> np.ndarray:
        """``recv_local - sent_local``: clock difference plus path delay."""
        return self.recv_local - self.sent_local
