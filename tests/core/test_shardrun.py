"""Tests for the batched sharded kernel (repro.core.shardrun)."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cliutil import dump_json_document
from repro.core.shardrun import (
    BatchOrder,
    ShardProgram,
    ShardRunConfig,
    build_shardrun_parser,
    run_shardrun,
    shardrun_main,
    split_due,
)
from repro.core.types import OrderType, Side, TimeInForce
from repro.sim.engine import SimulationError, Simulator

GOLDEN = Path(__file__).parent / "golden"

# Small but non-trivial: enough flow that every shard trades and the
# index moves, cheap enough to run twice per test.
SMALL = ShardRunConfig(
    n_participants=2000,
    n_symbols=10,
    n_shards=4,
    rate_per_participant_s=25.0,
    duration_s=0.15,
)


class TestShardRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRunConfig(n_shards=11, n_symbols=10)
        with pytest.raises(ValueError):
            ShardRunConfig(n_shards=0)
        with pytest.raises(ValueError):
            ShardRunConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            ShardRunConfig(n_participants=0)
        with pytest.raises(ValueError):
            ShardRunConfig(portfolio_buckets=0)
        # Latency knobs that would stamp orders into the past or make
        # the gamma draw fail deep inside a window.
        with pytest.raises(ValueError):
            ShardRunConfig(gateway_base_latency_us=-1.0)
        with pytest.raises(ValueError):
            ShardRunConfig(gateway_jitter_scale_us=-0.5)
        with pytest.raises(ValueError):
            ShardRunConfig(gateway_jitter_shape=0.0)
        ShardRunConfig(gateway_base_latency_us=0.0, gateway_jitter_scale_us=0.0)

    def test_lookahead_derivation(self):
        config = ShardRunConfig(md_publish_interval_ms=10.0, gateway_base_latency_us=80.0)
        assert config.lookahead_ns() == 10_000_000 + 2 * 80_000

    def test_window_count_covers_duration(self):
        config = SMALL
        assert config.n_windows() * config.lookahead_ns() >= config.duration_ns()
        assert (config.n_windows() - 1) * config.lookahead_ns() < config.duration_ns()

    def test_config_echo_is_sorted(self):
        keys = list(SMALL.to_dict())
        assert keys == sorted(keys)


class TestSplitDue:
    """The fast path (one stable sort per window) pinned to its slow
    path: one heap event per order, popped by ``run(until=t_end)``."""

    @given(
        windows=st.lists(
            st.tuples(
                st.sampled_from([1, 5, 7, 20, 40]),  # window length
                # Stamp offsets from the window start; few values, so
                # ties and stamps exactly on the edge are common.
                st.lists(st.sampled_from([0, 1, 5, 20, 40, 41, 60, 90, 130, 400]), max_size=12),
            ),
            min_size=1,
            max_size=8,
        )
    )
    # On the edge (due) and one past it, equal stamps, an empty window,
    # and a row carried over three windows.
    @example(windows=[(5, [5, 6, 5, 0, 14]), (5, []), (5, [0, 0]), (5, [1])])
    @settings(max_examples=300, deadline=None)
    def test_due_sequence_and_pending_match_the_heap(self, windows):
        sim = Simulator()
        popped = []
        carry = {}
        t_start = emitted = 0
        for length, offsets in windows:
            t_end = t_start + length
            ids = list(range(emitted, emitted + len(offsets)))
            stamps = [t_start + offset for offset in offsets]
            emitted += len(offsets)
            sim.schedule_message_bulk(
                [(stamp, popped.append, i) for i, stamp in zip(ids, stamps)]
            )
            sim.run(until=t_end)
            new = {"id": np.array(ids, dtype=np.int64), "stamp": np.array(stamps, dtype=np.int64)}
            due, carry = split_due(carry, new, t_end)
            assert due["id"].tolist() == popped
            assert (due["stamp"] <= t_end).all()
            assert len(carry["id"]) == sim.pending()
            assert carry["id"].tolist() == sorted(carry["id"].tolist())
            popped.clear()
            t_start = t_end

    def test_columns_travel_with_their_row(self):
        new = {
            "id": np.arange(4),
            "stamp": np.array([30, 10, 99, 10]),
            "qty": np.array([7, 8, 9, 6]),
            "flag": np.array([True, False, True, False]),
        }
        due, carry = split_due({}, new, 30)
        assert due["id"].tolist() == [1, 3, 0]
        assert due["qty"].tolist() == [8, 6, 7]
        assert due["flag"].tolist() == [False, False, True]
        late = {"id": np.arange(4, 6), "stamp": np.array([100, 98]), "qty": np.array([1, 2]),
                "flag": np.array([False, True])}
        due, carry = split_due(carry, late, 100)
        assert due["id"].tolist() == [5, 2, 4]
        assert due["qty"].tolist() == [2, 9, 1]
        assert due["flag"].dtype == np.bool_
        assert {key: len(col) for key, col in carry.items()} == dict.fromkeys(new, 0)


class TestShardProgram:
    def test_arrival_stamped_before_the_window_fails_loudly(self):
        # What the per-order heap used to refuse: a stamp in the past
        # would be matched behind orders it should have preceded.
        program = ShardProgram(SMALL, 0)
        window = SMALL.lookahead_ns()
        program.run_window(0, window, {"index": None})
        before = program.finish()
        take_until = program.stream.take_until

        def stamped_in_the_past(t_end):
            start, times, fields = take_until(t_end)
            fields["stamp"][-1] = window - 1
            return start, times, fields

        program.stream.take_until = stamped_in_the_past
        with pytest.raises(SimulationError):
            program.run_window(1, 2 * window, {"index": None})
        # Nothing was matched or carried from the refused window.
        after = program.finish()
        assert after.pop("arrivals") > before.pop("arrivals")
        assert after == before

    def test_shard_workload_depends_on_shard_id_not_placement(self):
        # Shard 2 built alone produces the same windows as shard 2
        # built alongside its siblings: RNG streams are keyed by id.
        alone = ShardProgram(SMALL, 2)
        sibling = ShardProgram(SMALL, 2)
        windows = [(w, (w + 1) * SMALL.lookahead_ns()) for w in range(3)]
        feedback = {"index": None}
        for w, t_end in windows:
            a = alone.run_window(w, t_end, feedback)
            b = sibling.run_window(w, t_end, feedback)
            assert a == b
            feedback = {"index": 10_000 + w}
        assert alone.finish() == sibling.finish()

    def test_feedback_moves_prices(self):
        # Same shard, two different feedback histories: the global
        # index genuinely couples into local matching.
        neutral = ShardProgram(SMALL, 0)
        pushed = ShardProgram(SMALL, 0)
        t1 = SMALL.lookahead_ns()
        assert neutral.run_window(0, t1, {"index": None}) == pushed.run_window(
            0, t1, {"index": None}
        )
        r_neutral = neutral.run_window(1, 2 * t1, {"index": 10_000})
        r_pushed = pushed.run_window(1, 2 * t1, {"index": 14_000})
        assert r_neutral != r_pushed
        assert neutral.finish()["last_prices"] != pushed.finish()["last_prices"]

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 10**9),  # id
                st.integers(0, 2),  # symbol index (shard 0 of SMALL has 3 symbols)
                st.booleans(),  # side_buy
                st.integers(1, 100),  # qty
                st.booleans(),  # market
                st.integers(-12_000, 400),  # offset: far enough down to hit the price floor
                st.integers(0, 10**6),  # participant
                st.integers(0, 10**12),  # stamp
            ),
            max_size=20,
        ),
        centers=st.tuples(*[st.integers(1, 20_000)] * 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_built_orders_equal_the_constructor(self, rows, centers):
        # The fast path (__new__ plus one store per slot) pinned to its
        # slow path: BatchOrder.__init__ on the same column rows.
        program = ShardProgram(SMALL, 0)
        assert len(program.symbols) == len(centers)
        program._centers = list(centers)
        names = ("id", "symbol", "side_buy", "qty", "market", "offset", "participant", "stamp")
        due = {
            name: np.array(
                [row[k] for row in rows],
                dtype=np.bool_ if name in ("side_buy", "market") else np.int64,
            )
            for k, name in enumerate(names)
        }
        built = program._build_orders(due)
        assert len(built) == len(rows)
        for order, (i, j, is_buy, qty, market, offset, pid, stamp) in zip(built, rows):
            expected = BatchOrder(
                client_order_id=i,
                participant_id=str(pid),
                symbol=program.symbols[j],
                side=Side.BUY if is_buy else Side.SELL,
                order_type=OrderType.MARKET if market else OrderType.LIMIT,
                quantity=qty,
                limit_price=None if market else max(centers[j] + offset, 1),
                time_in_force=TimeInForce.GTC,
                gateway_id="B",
                gateway_timestamp=stamp,
                gateway_seq=i,
                stamped_true=stamp,
                bucket=pid % SMALL.portfolio_buckets,
                symbol_index=j,
            )
            assert type(order) is BatchOrder
            for field in dataclasses.fields(BatchOrder):
                got, want = getattr(order, field.name), getattr(expected, field.name)
                assert got == want and type(got) is type(want), field.name

    def test_bucket_accounting_is_zero_sum(self):
        program = ShardProgram(SMALL, 1)
        program.run_window(0, SMALL.lookahead_ns(), {"index": None})
        final = program.finish()
        assert final["net_position"] == 0
        assert final["net_cash"] == 0
        assert final["stats"]["trades"] > 0
        assert final["abs_position"] > 0


class TestRunShardrun:
    def test_deterministic_across_runs(self):
        assert run_shardrun(SMALL) == run_shardrun(SMALL)

    def test_jobs_report_byte_identity(self):
        # The headline contract: process-parallel execution emits
        # byte-identical JSON to the inline golden run.
        inline = dump_json_document(run_shardrun(SMALL, jobs=1))
        sharded = dump_json_document(run_shardrun(SMALL, jobs=3))
        assert sharded == inline

    def test_report_shape_and_conservation(self):
        report = run_shardrun(SMALL)
        assert report["schema"] == "repro-shardrun/1"
        assert report["config"] == SMALL.to_dict()
        assert report["windows"] == SMALL.n_windows() == len(report["index_path"])
        assert len(report["per_shard"]) == SMALL.n_shards
        totals = report["totals"]
        assert totals["orders"] == totals["arrivals"] - totals["unprocessed"]
        assert totals["trades"] > 0
        assert report["conservation"]["net_position"] == 0
        assert report["conservation"]["net_cash"] == 0
        # No nondeterministic fields anywhere in the document.
        assert "wall" not in json.dumps(report)

    def test_seed_changes_report(self):
        other = dataclasses.replace(SMALL, seed=SMALL.seed + 1)
        assert run_shardrun(other) != run_shardrun(SMALL)

    def test_smoke_report_matches_golden_bytes(self):
        recipes = {
            # The CI smoke recipe, pinned to the bytes the per-order-heap
            # feed produced (CI cmp's its --jobs 1 report to the same file).
            "shardrun_smoke.json": ShardRunConfig(
                n_participants=20_000, n_symbols=10, n_shards=4,
                rate_per_participant_s=2.0, duration_s=0.3,
            ),
            # The Table-1 economics on the batched kernel: 12 283 orders,
            # 3 459 trades.
            "shardrun_table1.json": ShardRunConfig(
                seed=2021, n_participants=48, n_symbols=100, n_shards=4,
                rate_per_participant_s=1_700.0, duration_s=0.15,
                market_order_fraction=0.05,
            ),
            # A million participants (the defaults) for 0.1 s: 45 166
            # orders, 14 722 trades.
            "shardrun_1m_quick.json": ShardRunConfig(seed=2021, duration_s=0.1),
        }
        for name, config in recipes.items():
            golden = (GOLDEN / name).read_text(encoding="utf-8")
            assert dump_json_document(run_shardrun(config)) == golden, name

    def test_all_orders_eventually_processed(self):
        # Orders stamped past one window's edge wait in the shard's
        # carry and are matched in a later window; only stamps past the
        # final horizon remain.
        report = run_shardrun(SMALL)
        totals = report["totals"]
        assert totals["unprocessed"] < totals["arrivals"] * 0.01
        per_status = (
            totals["accepted"]
            + totals["partially_filled"]
            + totals["filled"]
            + totals["cancelled"]
            + totals["rejected"]
        )
        assert per_status == totals["orders"]


class TestShardrunCli:
    def test_parser_defaults(self):
        args = build_shardrun_parser().parse_args([])
        assert args.jobs == 1
        assert args.json is None

    def test_json_flag_const(self):
        args = build_shardrun_parser().parse_args(["--json"])
        assert args.json == "-"

    def test_main_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = shardrun_main(
            [
                "--participants", "500",
                "--symbols", "4",
                "--shards", "2",
                "--rate", "30",
                "--duration", "0.05",
                "--json", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-shardrun/1"
        stdout = capsys.readouterr().out
        assert "orders/s" in stdout

    def test_cli_jobs_byte_identity(self, tmp_path):
        argv = [
            "--participants", "500",
            "--symbols", "4",
            "--shards", "2",
            "--rate", "30",
            "--duration", "0.05",
        ]
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        assert shardrun_main(argv + ["--jobs", "1", "--json", str(one)]) == 0
        assert shardrun_main(argv + ["--jobs", "2", "--json", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
