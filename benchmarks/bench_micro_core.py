"""Microbenchmarks for the hot-path data structures.

Not a paper figure: these guard the simulator's own performance (the
matching core, book, sequencer, clock, and storage are executed
hundreds of thousands of times per simulated second in the macro
benchmarks).  Each case asserts its deterministic result.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.book import LimitOrderBook
from repro.core.matching import MatchingEngineCore
from repro.core.order import Order
from repro.core.portfolio import PortfolioMatrix
from repro.core.ros import RosDeduplicator
from repro.core.sequencer import Sequencer
from repro.core.types import OrderType, Side
from repro.sim.clock import HostClock
from repro.sim.engine import Simulator
from repro.storage.bigtable import Bigtable


def _orders(n, crossing=False, seed=1):
    rng = np.random.default_rng(seed)
    orders = []
    for i in range(n):
        side = Side.BUY if rng.random() < 0.5 else Side.SELL
        if crossing:
            price = 10_000 + int(rng.integers(-5, 6))
        else:
            price = 9_990 - int(rng.integers(0, 20)) if side is Side.BUY else 10_010 + int(rng.integers(0, 20))
        orders.append(
            Order(
                client_order_id=i + 1,
                participant_id=f"p{i % 8}",
                symbol="S",
                side=side,
                order_type=OrderType.LIMIT,
                quantity=int(rng.integers(1, 100)),
                limit_price=price,
                gateway_id="g",
                gateway_timestamp=i,
                gateway_seq=i,
            )
        )
    return orders


def test_book_add_cancel_throughput(benchmark):
    orders = _orders(2_000)

    def run():
        book = LimitOrderBook("S")
        for order in orders:
            book.add_resting(order)
        for order in orders:
            book.cancel(order.participant_id, order.client_order_id)
            order.remaining = order.quantity
        return book.resting_count()

    assert benchmark(run) == 0


def test_matching_throughput_crossing_flow(benchmark):
    def run():
        portfolio = PortfolioMatrix(default_cash=10**9)
        for i in range(8):
            portfolio.open_account(f"p{i}")
        core = MatchingEngineCore(["S"], portfolio)
        for order in _orders(2_000, crossing=True):
            order.remaining = order.quantity
            core.process_order(order, now_local=0)
        return core.orders_processed

    assert benchmark(run) == 2_000


def test_sequencer_enqueue_pop_throughput(benchmark):
    def run():
        sim = Simulator()
        clock = HostClock(sim)
        seq = Sequencer(sim, clock, on_eligible=lambda: None, delay_ns=0)
        for i in range(5_000):
            seq.enqueue((i % 97, "g", i), i, i)
        # Advance past every release deadline, then drain.
        sim.schedule(1_000, lambda: None)
        sim.run()
        drained = 0
        while seq.pop_eligible() is not None:
            drained += 1
        return drained

    assert benchmark(run) == 5_000


def test_ros_dedup_throughput(benchmark):
    def run():
        dedup = RosDeduplicator()
        for i in range(5_000):
            for gw in ("g0", "g1", "g2"):
                dedup.admit(("p", i), gw, now_local=i * 1_000)
        return dedup.duplicates_dropped

    assert benchmark(run) == 10_000


def test_bigtable_write_scan_throughput(benchmark):
    def run():
        table = Bigtable("t", families=("cf",))
        for i in range(2_000):
            table.write(f"trade#S#{i:012d}", "cf", "q", b"v", i)
        return sum(1 for _ in table.scan())

    assert benchmark(run) == 2_000


def test_simulator_event_throughput(benchmark):
    def run():
        sim = Simulator()

        def tick(n):
            if n:
                sim.schedule(10, tick, n - 1)

        tick(10_000)
        sim.run()
        return sim.events_processed

    assert benchmark(run) == 10_000


def test_depth_snapshot_throughput(benchmark):
    orders = _orders(1_000)

    def run():
        book = LimitOrderBook("S")
        checksum = 0
        for i, order in enumerate(orders):
            book.add_resting(order)
            bids, asks = book.depth_snapshot(max_levels=10)
            checksum = (checksum * 31 + len(bids) + 7 * len(asks) + i) % 1_000_000_007
            if i % 3 == 0:
                book.cancel(order.participant_id, order.client_order_id)
                order.remaining = order.quantity
        return checksum

    assert benchmark(run) == 194_432_042


def test_clock_now_throughput(benchmark):
    def run():
        sim = Simulator()
        clock = HostClock(sim, drift_ppb=42_000, offset_ns=1_500_000)
        clock.set_linear_correction(1_200, 37_000, clock.raw_local())
        total = 0
        for i in range(150_000):
            sim.now = i * 1_000
            total += clock.now()
        return total

    assert benchmark(run) == 11_474_801_232_297
