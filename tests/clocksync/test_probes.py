"""Tests for probe records."""

import dataclasses

import numpy as np
import pytest

from repro.clocksync.probes import ProbeColumns
from tests.clocksync.reference import Probe, columns


class TestProbeExchange:
    """The record of probe exchanges: one :class:`ProbeColumns` per window."""

    def test_difference(self):
        probes = columns([Probe(sent_local=10, recv_local=150, sent_true=10), Probe(20, 15, 20)])
        assert probes.difference.tolist() == [140, -5]

    def test_frozen(self):
        probes = columns([Probe(1, 2, 3)])
        with pytest.raises(AttributeError):
            probes.sent_local = probes.recv_local  # type: ignore[misc]
        assert not hasattr(probes, "__dict__")

    def test_columns_are_int64_and_selection_keeps_order(self):
        probes = columns([Probe(i, i + 100, i) for i in range(6)])
        assert all(
            getattr(probes, f.name).dtype == np.int64 for f in dataclasses.fields(ProbeColumns)
        )
        assert len(probes) == 6
        assert probes[0::2].sent_local.tolist() == [0, 2, 4]
        assert probes[1::2].recv_local.tolist() == [101, 103, 105]
        mask = np.array([True, False, False, True, False, True])
        assert probes[mask].sent_true.tolist() == [0, 3, 5]

    def test_concat_preserves_window_order(self):
        windows = [columns([Probe(1, 2, 3)]), columns([]), columns([Probe(4, 5, 6), Probe(7, 8, 9)])]
        merged = ProbeColumns.concat(windows)
        assert merged.sent_local.tolist() == [1, 4, 7]
        assert merged.recv_local.tolist() == [2, 5, 8]
        assert merged.sent_true.tolist() == [3, 6, 9]

    def test_concat_of_nothing_is_an_empty_record(self):
        empty = ProbeColumns.concat([])
        assert len(empty) == 0 and len(empty[0::2]) == 0
        assert empty.sent_local.dtype == np.int64
