"""Tests for the ``python -m repro bench`` suites and baseline check."""

from __future__ import annotations

import copy
import json

import pytest

from repro.perf.bench import (
    DEFAULT_TOLERANCE,
    bench_main,
    build_bench_parser,
    check_against_baseline,
    run_micro_suite,
    _testbed_config,
)


def _doc(normalized=1.0, work=None, quick=True, name="b"):
    return {
        "suite": "micro",
        "quick": quick,
        "calibration_s": 0.1,
        "benches": {
            name: {
                "wall_s": normalized * 0.1,
                "normalized": normalized,
                "work": {"events": 10} if work is None else work,
            }
        },
    }


class TestCheckAgainstBaseline:
    def test_identical_passes(self):
        doc = _doc()
        assert check_against_baseline(doc, copy.deepcopy(doc)) == []

    def test_within_tolerance_passes(self):
        failures = check_against_baseline(_doc(normalized=1.2), _doc(normalized=1.0))
        assert failures == []

    def test_regression_beyond_tolerance_fails(self):
        failures = check_against_baseline(_doc(normalized=1.3), _doc(normalized=1.0))
        assert len(failures) == 1
        assert "regressed" in failures[0]

    def test_improvement_never_fails(self):
        failures = check_against_baseline(_doc(normalized=0.2), _doc(normalized=1.0))
        assert failures == []

    def test_custom_tolerance(self):
        current, baseline = _doc(normalized=1.3), _doc(normalized=1.0)
        assert check_against_baseline(current, baseline, tolerance=0.5) == []
        assert check_against_baseline(current, baseline, tolerance=0.1)

    def test_deterministic_work_drift_fails(self):
        failures = check_against_baseline(
            _doc(work={"events": 11}), _doc(work={"events": 10})
        )
        assert len(failures) == 1
        assert "drifted" in failures[0]

    def test_mode_mismatch_fails(self):
        failures = check_against_baseline(_doc(quick=True), _doc(quick=False))
        assert len(failures) == 1
        assert "mode mismatch" in failures[0]

    def test_new_bench_without_baseline_entry_passes(self):
        current = _doc()
        current["benches"]["brand_new"] = {"wall_s": 1.0, "normalized": 10.0, "work": {}}
        assert check_against_baseline(current, _doc()) == []


class TestMicroSuite:
    def test_runs_and_is_deterministic(self):
        doc = run_micro_suite(quick=True, repeats=1)
        assert doc["suite"] == "micro"
        assert doc["quick"] is True
        assert set(doc["benches"]) == {
            "book_add_cancel",
            "matching_crossing",
            "depth_snapshots",
            "engine_dispatch",
            "sequencer",
            "clock_now",
        }
        for entry in doc["benches"].values():
            assert entry["wall_s"] > 0
            assert entry["normalized"] == pytest.approx(
                entry["wall_s"] / entry["calibration_s"]
            )
        assert doc["calibration_s"] > 0  # median of the per-bench values
        # Deterministic work reproduces exactly on a second pass.
        again = run_micro_suite(quick=True, repeats=1)
        for name, entry in doc["benches"].items():
            assert again["benches"][name]["work"] == entry["work"]


class TestCli:
    def test_parser_defaults(self):
        args = build_bench_parser().parse_args([])
        assert args.suite == "all"
        assert not args.quick
        assert not args.check
        assert args.tolerance == DEFAULT_TOLERANCE

    def test_write_then_check_roundtrip(self, tmp_path, capsys):
        argv = ["--suite", "micro", "--quick", "--repeats", "1", "--out-dir", str(tmp_path)]
        assert bench_main(argv) == 0
        baseline_path = tmp_path / "BENCH_micro.json"
        assert baseline_path.exists()
        baseline = json.loads(baseline_path.read_text())
        assert baseline["suite"] == "micro"
        # This pins write -> read -> compare, not speed: two --repeats 1
        # runs of the same code can differ by any factor on a busy
        # host, so the timing tolerance is out of reach.  The exact
        # ``work`` comparison still runs (see the drift test below).
        assert bench_main(argv + ["--check", "--tolerance", "1e9"]) == 0
        out = capsys.readouterr().out
        assert "OK vs" in out

    def test_check_without_baseline_fails(self, tmp_path):
        argv = [
            "--suite", "micro", "--quick", "--repeats", "1",
            "--out-dir", str(tmp_path), "--check",
        ]
        assert bench_main(argv) == 1

    def test_check_detects_determinism_drift(self, tmp_path):
        argv = ["--suite", "micro", "--quick", "--repeats", "1", "--out-dir", str(tmp_path)]
        assert bench_main(argv) == 0
        baseline_path = tmp_path / "BENCH_micro.json"
        baseline = json.loads(baseline_path.read_text())
        baseline["benches"]["clock_now"]["work"]["total"] += 1
        baseline_path.write_text(json.dumps(baseline))
        assert bench_main(argv + ["--check", "--tolerance", "2.0"]) == 1


class TestTestbedConfig:
    def test_matches_benchmark_conftest(self):
        """The macro suite's inline testbed must stay in sync with
        ``benchmarks/bench_table1_sharding.py``'s saturation config."""
        conftest = pytest.importorskip(
            "benchmarks.conftest", reason="benchmarks package not on sys.path"
        )
        expected = conftest.paper_testbed_config(n_shards=4, cancel_fraction=0.0)
        assert _testbed_config(4) == expected


class TestShardrunBenches:
    def test_configs_mirror_testbed_economics(self):
        """The batched Table-1 point must share the scalar testbed's
        economic knobs, or the batched_speedup ratio is meaningless."""
        from repro.perf.bench import _shardrun_configs

        configs = _shardrun_configs(quick=True)
        assert set(configs) == {"shardrun_table1", "shardrun_1m"}
        table1 = configs["shardrun_table1"]
        testbed = _testbed_config(4)
        assert table1.seed == testbed.seed
        assert table1.n_participants == testbed.n_participants
        assert table1.n_symbols == testbed.n_symbols
        assert table1.n_shards == testbed.n_shards
        assert table1.market_order_fraction == testbed.market_order_fraction
        assert configs["shardrun_1m"].n_participants == 1_000_000

    def test_batched_speedup_math(self):
        from repro.perf.bench import _batched_speedup

        benches = {
            "table1_shards_4": {
                "wall_s": 2.0,
                "work": {"throughput_per_s": 1000.0, "sim_duration_s": 0.5},
            },
            "shardrun_table1": {"wall_s": 0.1, "work": {"orders": 1000}},
        }
        # scalar: 1000 * 0.5 / 2.0 = 250 orders/wall-s; batched: 10_000.
        assert _batched_speedup(benches) == 40.0
        assert _batched_speedup({}) is None
        assert _batched_speedup({"shardrun_table1": benches["shardrun_table1"]}) is None
