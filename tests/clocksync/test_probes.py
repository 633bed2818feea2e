"""Tests for probe records and the coded-probe filter."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocksync.probes import ProbeColumns, coded_pair_mask
from tests.clocksync.reference import Probe, columns, list_coded_filter


def pair(tx_spacing, rx_spacing, base=0):
    first = Probe(sent_local=base, recv_local=base + 100, sent_true=base)
    second = Probe(
        sent_local=base + tx_spacing,
        recv_local=base + 100 + rx_spacing,
        sent_true=base + tx_spacing,
    )
    return first, second


def survivors_of(pairs, spacing_tolerance_ns):
    """The first probes the mask keeps, as the list filter returned them."""
    first = columns([p for p, _ in pairs])
    second = columns([p for _, p in pairs])
    kept = first[coded_pair_mask(first, second, spacing_tolerance_ns)]
    return [
        Probe(*row)
        for row in zip(kept.sent_local.tolist(), kept.recv_local.tolist(), kept.sent_true.tolist())
    ]


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


class TestCodedProbeFilter:
    def test_clean_pair_survives(self):
        survivors = survivors_of([pair(1_000, 1_000)], spacing_tolerance_ns=50)
        assert len(survivors) == 1

    def test_spread_pair_dropped(self):
        survivors = survivors_of([pair(1_000, 5_000)], spacing_tolerance_ns=50)
        assert survivors == []

    def test_compressed_pair_dropped(self):
        survivors = survivors_of([pair(1_000, 100)], spacing_tolerance_ns=50)
        assert survivors == []

    def test_tolerance_boundary_inclusive(self):
        assert len(survivors_of([pair(1_000, 1_050)], spacing_tolerance_ns=50)) == 1
        assert len(survivors_of([pair(1_000, 950)], spacing_tolerance_ns=50)) == 1
        assert survivors_of([pair(1_000, 1_051)], spacing_tolerance_ns=50) == []
        assert survivors_of([pair(1_000, 949)], spacing_tolerance_ns=50) == []

    def test_first_probe_returned(self):
        first, second = pair(1_000, 1_000)
        survivors = survivors_of([(first, second)], spacing_tolerance_ns=50)
        assert survivors == [first]

    def test_order_preserved(self):
        pairs = [pair(1_000, 1_000, base=i * 10_000) for i in range(5)]
        survivors = survivors_of(pairs, spacing_tolerance_ns=50)
        assert [s.sent_local for s in survivors] == [0, 10_000, 20_000, 30_000, 40_000]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            coded_pair_mask(columns([]), columns([]), spacing_tolerance_ns=-1)

    def test_empty_input(self):
        assert survivors_of([], spacing_tolerance_ns=10) == []

    @settings(max_examples=200, deadline=None)
    @given(
        spacings=st.lists(
            st.tuples(st.integers(0, 50_000), st.integers(-50_000, 100_000), st.integers(-10**15, 10**15)),
            max_size=30,
        ),
        tolerance=st.integers(0, 5_000),
    )
    def test_mask_keeps_exactly_what_the_list_filter_kept(self, spacings, tolerance):
        pairs = [pair(tx, rx, base) for tx, rx, base in spacings]
        assert survivors_of(pairs, tolerance) == list_coded_filter(pairs, tolerance)
