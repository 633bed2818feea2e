"""Self-checks of the benchmark package.

Run with ``python -m pytest bench/tests`` (outside tier-1's testpaths).
"""

import copy
import json
import re
import subprocess
import sys
import time

import pytest

from bench import ROOT, calibrate, compare, load_benchmark
from bench.layers import LAYERS, Boundary
from bench.trace import Region, Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return load_benchmark()


def test_benchmark_json_is_within_the_contract(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    names = (
        [w["name"] for w in contract["workloads"]]
        + [m["name"] for m in contract["end_to_end"]]
        + [m["name"] for m in contract["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = {m["name"]: m for m in contract["end_to_end"]}["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_every_layer_has_its_two_metrics(contract):
    per_layer = {m["name"] for m in contract["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_share", f"{layer}.calls"} <= per_layer


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--seed", "5", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:]
    return json.loads(out.read_text())


def test_smoke_output_parses_and_is_complete(contract, smoke_result):
    assert set(smoke_result["workloads"]) == {w["name"] for w in contract["workloads"]}
    for workload, entry in smoke_result["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            detail = entry[kind]
            assert detail["correct"] and detail["failed"] == 0 and detail["attempted"] >= 1
            assert set(detail["metrics"]) == {m["name"] for m in contract[kind]}
        for name, metric in entry["end_to_end"]["metrics"].items():
            assert metric["value"] > 0, (workload, name)
        traced = entry["per_layer"]["metrics"]
        assert 0 <= traced["trace.residual_share"]["value"] <= 1
        assert traced["trace.overhead_ratio"]["value"] > 0
        # Tracing must not perturb the simulated statistics.  (The serve
        # digest covers the first 16 jobs, which a smoke run may not reach.)
        if workload != "serve_jobs":
            assert entry["per_layer"]["sim_digest"] == entry["end_to_end"]["sim_digest"]


def test_a_single_workload_run_ends_with_the_drivers_line(contract):
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "shardrun_1m", "--seed", "9",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in contract["per_layer"]]
    for metric in last["metrics"].values():
        assert set(metric) == {"value", "unit"} and isinstance(metric["value"], (int, float))


def test_the_clock_puts_a_timed_piece_at_reference_machine_speed(monkeypatch):
    slices = iter([0.02, 0.04, 0.06])
    monkeypatch.setattr(calibrate, "slice_s", lambda: next(slices))
    monkeypatch.setattr(calibrate, "REFERENCE_S", 0.02)
    clock = calibrate.Clock()
    result, seconds = clock.timed(lambda: time.sleep(0.03) or "done")
    assert result == "done" and clock.slowdowns == [1.5]  # slices of 0.02 and 0.04 s around it
    assert 0.03 / 1.5 <= seconds < 0.03
    clock.timed(lambda: None)
    assert clock.slowdowns == [1.5, 2.5]  # the slice between two pieces is shared
    assert calibrate.raw_timed(lambda: 7)[0] == 7


def test_a_real_calibration_slice_takes_time():
    assert calibrate.slice_s() > 0


def test_rounds_repeat_until_the_time_is_used_up_and_never_fewer_than_three():
    from bench.run import MIN_ROUNDS, repeat_for

    assert len(repeat_for(0.0, lambda: None)) == MIN_ROUNDS
    assert len(repeat_for(0.2, lambda: time.sleep(0.01))) > MIN_ROUNDS


TOY = (
    Boundary("top", "bench.tests.toy:Root.run"),
    Boundary("middle", "bench.tests.toy:Middle.step", span=True),
    Boundary("bottom", "bench.tests.toy:Leaf.work"),
)


def test_tracer_self_times_sum_to_the_roots_inclusive_time():
    from bench.tests import toy

    tracer = Tracer(TOY)
    with tracer:
        root = toy.Root()
        with Region(tracer) as region:
            root.run()
    rows = region.rows
    assert rows["bench.tests.toy:Root.run"].calls == 1
    assert rows["bench.tests.toy:Middle.step"].calls == 3
    assert rows["bench.tests.toy:Leaf.work"].calls == 7
    inclusive = rows["bench.tests.toy:Root.run"].inclusive_ns
    assert sum(totals.self_ns for totals in rows.values()) == inclusive
    assert sum(totals.self_ns for totals in region.layers.values()) == inclusive
    assert inclusive <= region.wall_ns
    # The busy loops make each layer's self time at least what it spun for.
    assert region.layers["top"].self_ns >= 100_000
    assert region.layers["middle"].self_ns >= 3 * 300_000
    assert region.layers["bottom"].self_ns >= 7 * 200_000
    spans = tracer.spans_named("Middle.step")
    assert len(spans) == 3 and all(span["end_ns"] > span["start_ns"] for span in spans)
    # Uninstalled: the classes are back to their own functions.
    assert not hasattr(toy.Root.run, "__wrapped__")


def test_an_unresolvable_boundary_yields_null_not_an_exception(capsys):
    from bench.run import _layer_metrics
    from bench.tests import toy

    tracer = Tracer(TOY + (Boundary("bottom", "bench.tests.toy:Leaf.renamed_away"),
                           Boundary("gone", "bench.tests.no_such_module:f")))
    with tracer:
        with Region(tracer) as region:
            toy.Root().run()
    assert "renamed_away" in capsys.readouterr().err
    assert sorted(tracer.unresolved) == [
        "bench.tests.no_such_module:f", "bench.tests.toy:Leaf.renamed_away",
    ]
    assert set(region.layers) == {"top", "middle"}  # "bottom" has a broken row
    metrics = _layer_metrics(region)
    assert metrics["core.matching.self_share"] is None  # not in this toy table at all


def _result(value):
    metric = {"value": value, "q1": value * 0.99, "q3": value * 1.01, "n": 5}
    detail = {
        "metrics": {"peak_rss_mb": metric}, "sim_digest": "d", "attempted": 10, "failed": 0,
    }
    return {"workloads": {"w": {"end_to_end": detail}}}


def test_compare_flags_a_20_percent_regression_and_passes_3_percent():
    def verdict_of(change_ms):
        lines, any_worse = compare.compare(_result(100.0), _result(change_ms))
        row = next(line for line in lines if "peak_rss_mb" in line)
        return row, any_worse

    row, any_worse = verdict_of(120.0)
    assert "worse" in row and any_worse
    row, any_worse = verdict_of(103.0)
    assert "within-bound" in row and not any_worse
    row, any_worse = verdict_of(80.0)
    assert "better" in row and not any_worse
    noisy = _result(100.0)
    noisy["workloads"]["w"]["end_to_end"]["metrics"]["peak_rss_mb"].update(q1=80.0, q3=120.0)
    lines, any_worse = compare.compare(noisy, _result(120.0))
    assert "unresolved" in next(line for line in lines if "peak_rss_mb" in line)
    assert not any_worse
    moved = copy.deepcopy(_result(100.0))
    moved["workloads"]["w"]["end_to_end"]["sim_digest"] = "e"
    lines, _ = compare.compare(_result(100.0), moved)
    assert any("sim_digest DIFFERENT" in line for line in lines)
