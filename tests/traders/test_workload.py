"""Tests for workload assembly helpers."""

import numpy as np
import pytest

from repro.core.config import SHARDRUN_CHUNK, SHARDRUN_MARKET_ORDER_FRACTION
from repro.sim.rng import RngRegistry
from repro.traders.base import PoissonArrivalStream
from repro.traders.workload import BulkOrderStream, split_symbols
from repro.traders.zi import zi_bulk_fields


class TestSplitSymbols:
    def test_every_participant_gets_requested_count(self):
        symbols = [f"S{i:02d}" for i in range(10)]
        assignments = split_symbols(symbols, 6, 3, RngRegistry(1))
        assert len(assignments) == 6
        assert all(len(a) == 3 for a in assignments)

    def test_assignments_within_universe(self):
        symbols = [f"S{i:02d}" for i in range(10)]
        for assignment in split_symbols(symbols, 4, 2, RngRegistry(1)):
            assert set(assignment) <= set(symbols)

    def test_universe_coverage_when_capacity_allows(self):
        symbols = [f"S{i:02d}" for i in range(8)]
        assignments = split_symbols(symbols, 8, 2, RngRegistry(1))
        covered = {s for a in assignments for s in a}
        assert covered == set(symbols)

    def test_deterministic(self):
        symbols = [f"S{i:02d}" for i in range(10)]
        a = split_symbols(symbols, 5, 3, RngRegistry(9))
        b = split_symbols(symbols, 5, 3, RngRegistry(9))
        assert a == b

    def test_no_duplicates_within_assignment(self):
        symbols = [f"S{i:02d}" for i in range(5)]
        for assignment in split_symbols(symbols, 10, 4, RngRegistry(2)):
            assert len(set(assignment)) == len(assignment)

    def test_validation(self):
        with pytest.raises(ValueError):
            split_symbols(["A"], 2, 0, RngRegistry(1))
        with pytest.raises(ValueError):
            split_symbols(["A"], 2, 2, RngRegistry(1))

    def test_undersubscribed_universe_covers_prefix_in_list_order(self):
        """Contract pin: with fewer total slots than symbols, full
        coverage is impossible -- the round-robin base covers exactly
        the first n_participants * per_participant symbols in list
        order, and nothing raises."""
        symbols = [f"S{i:02d}" for i in range(7)]
        assignments = split_symbols(symbols, 2, 2, RngRegistry(1))
        assert len(assignments) == 2
        covered = {s for a in assignments for s in a}
        assert covered == set(symbols[:4])

    def test_undersubscribed_single_slot_participants(self):
        symbols = [f"S{i:02d}" for i in range(5)]
        assignments = split_symbols(symbols, 2, 1, RngRegistry(3))
        assert assignments == [["S00"], ["S01"]]


class TestPoissonArrivalStream:
    def test_arrivals_strictly_increase(self):
        stream = PoissonArrivalStream(np.random.default_rng(1), rate_per_s=50_000.0)
        times = stream.take_until(10_000_000)
        assert len(times) > 0
        assert (np.diff(times) >= 1).all()

    def test_windowing_is_draw_invariant(self):
        """The determinism contract: slicing time differently must not
        change the generated stream (chunked draws are window-blind)."""
        one = PoissonArrivalStream(np.random.default_rng(7), rate_per_s=20_000.0)
        many = PoissonArrivalStream(np.random.default_rng(7), rate_per_s=20_000.0)
        whole = one.take_until(50_000_000)
        pieces = [many.take_until(t) for t in (1_000_000, 1_000_000, 17_000_000, 50_000_000)]
        assert np.array_equal(whole, np.concatenate(pieces))

    def test_consecutive_windows_tile_without_overlap(self):
        stream = PoissonArrivalStream(np.random.default_rng(2), rate_per_s=10_000.0)
        first = stream.take_until(5_000_000)
        second = stream.take_until(9_000_000)
        assert (first < 5_000_000).all()
        if len(second):
            assert second[0] >= first[-1] + 1
            assert (second >= 5_000_000).all() and (second < 9_000_000).all()

    def test_field_columns_stay_aligned_across_windows(self):
        def factory_for(seed):
            rng = np.random.default_rng(seed)
            return lambda n: {"tag": rng.integers(0, 1000, size=n)}

        one = PoissonArrivalStream(
            np.random.default_rng(5), 30_000.0, field_factory=factory_for(9)
        )
        many = PoissonArrivalStream(
            np.random.default_rng(5), 30_000.0, field_factory=factory_for(9)
        )
        times_whole, fields_whole = one.take_until(20_000_000)
        parts = [many.take_until(t) for t in (3_000_000, 11_000_000, 20_000_000)]
        assert np.array_equal(
            fields_whole["tag"], np.concatenate([f["tag"] for _, f in parts])
        )
        assert np.array_equal(times_whole, np.concatenate([t for t, _ in parts]))

    def test_validation(self):
        for rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                PoissonArrivalStream(np.random.default_rng(1), rate_per_s=rate)
        with pytest.raises(ValueError):
            PoissonArrivalStream(np.random.default_rng(1), rate_per_s=1.0, chunk=0)


class TestBulkOrderStream:
    def _stream(self, seed=11, **overrides):
        kwargs = dict(
            arrivals_rng=np.random.default_rng(seed),
            fields_rng=np.random.default_rng(seed + 1),
            n_participants=1000,
            rate_per_s=100_000.0,
            n_symbols=8,
        )
        kwargs.update(overrides)
        return BulkOrderStream(**kwargs)

    def test_columns_are_complete_and_in_range(self):
        start, times, fields = self._stream().take_until(5_000_000)
        n = len(times)
        assert start == 0 and n > 0
        assert set(fields) == {"symbol", "side_buy", "qty", "market", "offset", "participant", "stamp"}
        assert all(len(col) == n for col in fields.values())
        assert (0 <= fields["symbol"]).all() and (fields["symbol"] < 8).all()
        assert (0 <= fields["participant"]).all() and (fields["participant"] < 1000).all()
        assert (1 <= fields["qty"]).all() and (fields["qty"] <= 100).all()
        assert (fields["stamp"] > times).all()  # gateway latency is positive

    def test_global_indices_tile_across_windows(self):
        stream = self._stream()
        start1, times1, _ = stream.take_until(2_000_000)
        start2, times2, _ = stream.take_until(4_000_000)
        assert start1 == 0
        assert start2 == len(times1)
        assert stream.emitted == len(times1) + len(times2)

    def test_window_invariance_end_to_end(self):
        whole = self._stream()
        sliced = self._stream()
        _, times_whole, fields_whole = whole.take_until(8_000_000)
        parts = [sliced.take_until(t) for t in (1_000_000, 3_500_000, 8_000_000)]
        assert np.array_equal(times_whole, np.concatenate([t for _, t, _ in parts]))
        for key in fields_whole:
            assert np.array_equal(
                fields_whole[key], np.concatenate([f[key] for _, _, f in parts])
            ), key

    def test_reads_the_zi_generator_draw_for_draw(self):
        """The batched feed's first chunk is ``zi_bulk_fields`` on the
        same generator, with the raw roll thresholded into ``market``."""
        _, times, fields = self._stream(seed=11).take_until(200_000_000)
        assert len(times) > SHARDRUN_CHUNK
        zi = zi_bulk_fields(np.random.default_rng(12), SHARDRUN_CHUNK, 8)
        for key in ("symbol", "side_buy", "qty", "offset"):
            assert np.array_equal(fields[key][:SHARDRUN_CHUNK], zi[key]), key
        assert np.array_equal(
            fields["market"][:SHARDRUN_CHUNK], zi["roll"] < SHARDRUN_MARKET_ORDER_FRACTION
        )
