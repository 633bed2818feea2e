"""The frontier study: determinism, structure, and the serve front door."""

import json
import os
from pathlib import Path

import pytest

from repro.cliutil import dump_json_document
from repro.core.cluster import CloudExCluster
from repro.exp import ResultCache
from repro.fairness import POLICY_NAMES
from repro.fairness.study import (
    SCENARIOS,
    build_fairness_spec,
    build_frontier,
    run_fairness_study,
)
from repro.serve.runners import execute_job
from repro.serve.schema import JobError, describe, normalize_job
from tests.conftest import small_config

GOLDEN_CELLS = Path(__file__).parent / "golden" / "tiny_study_cells.json"


def tiny_spec(policies=("cloudex", "noop"), clocks=("huygens",),
              scenarios=("latency_storm",), **overrides):
    fields = dict(
        policies=policies,
        clocks=clocks,
        scenarios=scenarios,
        seeds=1,
        n_participants=3,
        n_gateways=2,
        n_symbols=4,
        rate_per_participant=80.0,
        warmup_s=0.1,
        duration_s=0.3,
        name="tiny",
    )
    fields.update(overrides)
    return build_fairness_spec(**fields)


class TestSpec:
    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            tiny_spec(policies=("cloudex", "bogus"))
        with pytest.raises(ValueError, match="unknown clock"):
            tiny_spec(clocks=("sundial",))
        with pytest.raises(ValueError, match="unknown scenario"):
            tiny_spec(scenarios=("earthquake",))

    def test_labels_align_with_grid(self):
        spec, labels = tiny_spec(scenarios=tuple(SCENARIOS))
        assert len(labels) == len(spec.grid) == 2 * 1 * len(SCENARIOS)
        for (policy, clock, scenario), point in zip(labels, spec.grid):
            assert point["fairness_policy"] == policy
            assert point["clock_sync"] == clock
            for key, value in SCENARIOS[scenario].items():
                assert point[key] == value

    def test_every_point_expands(self):
        spec, _ = tiny_spec(scenarios=tuple(SCENARIOS))
        tasks = spec.expand()
        assert len(tasks) == len(spec.grid)


class TestDeterminism:
    def test_jobs_1_vs_2_byte_identical(self):
        spec, labels = tiny_spec()
        serial, _ = run_fairness_study(spec, labels, jobs=1)
        parallel, _ = run_fairness_study(spec, labels, jobs=2)
        assert dump_json_document(serial) == dump_json_document(parallel)

    def test_cached_rerun_byte_identical(self, tmp_path):
        spec, labels = tiny_spec()
        cache = ResultCache(str(tmp_path))
        first, outcome1 = run_fairness_study(spec, labels, jobs=1, cache=cache)
        second, outcome2 = run_fairness_study(spec, labels, jobs=1, cache=cache)
        assert outcome1.executed == len(labels)
        assert outcome2.executed == 0
        assert outcome2.from_cache == len(labels)
        assert dump_json_document(first) == dump_json_document(second)


class TestFrontierDocument:
    @pytest.fixture(scope="class")
    def frontier(self):
        spec, labels = tiny_spec()
        document, outcome = run_fairness_study(spec, labels, jobs=1)
        assert outcome.ok
        return document

    def test_cells_carry_shared_metrics(self, frontier):
        assert len(frontier["cells"]) == 2
        for cell in frontier["cells"]:
            assert cell["failed"] is False
            assert cell["metrics"]["e2e_p50_us"] > 0

    def test_added_latency_is_relative_to_noop(self, frontier):
        by_policy = {c["policy"]: c["metrics"] for c in frontier["cells"]}
        assert by_policy["noop"]["added_e2e_p50_us"] == 0.0
        assert by_policy["cloudex"]["added_e2e_p50_us"] == pytest.approx(
            by_policy["cloudex"]["e2e_p50_us"] - by_policy["noop"]["e2e_p50_us"]
        )
        # CloudEx holds orders for d_s: it cannot be faster than no-op.
        assert by_policy["cloudex"]["added_e2e_p50_us"] > 0

    def test_dominance_verdicts(self, frontier):
        # Storm cells under a synced clock: the machinery-off baseline
        # must be the least fair -- the study's headline claim.
        assert frontier["dominance"]["noop_worst_unfairness_under_storm"] is True
        stats = frontier["frontier"]
        assert stats["noop"]["synced_storm_unfairness_true_mean"] >= (
            stats["cloudex"]["synced_storm_unfairness_true_mean"]
        )

    def test_document_reduction_is_pure(self, frontier):
        spec, labels = tiny_spec()
        _, outcome = run_fairness_study(spec, labels, jobs=1)
        again = build_frontier(outcome.document, labels, spec.seed_labels())
        assert dump_json_document(again) == dump_json_document(frontier)


class TestGoldenCells:
    def test_four_policy_cells_match_committed_fixture(self):
        """The golden guard, extended from cloudex to every policy and
        both clock regimes: the ``cells`` block (everything a cell
        measures; not ``code_version``) of the tiny study, byte for
        byte.  Regenerate (``GOLDEN_REGEN=1``, as for
        ``tests/integration/test_golden_run.py``) only for a change that
        means to move a policy's numbers, and say which field moved and
        why."""
        spec, labels = tiny_spec(policies=POLICY_NAMES, clocks=("huygens", "none"))
        frontier, outcome = run_fairness_study(spec, labels, jobs=1)
        assert outcome.ok
        cells = dump_json_document(frontier["cells"])
        if os.environ.get("GOLDEN_REGEN") == "1":
            GOLDEN_CELLS.write_text(cells)
            pytest.skip(f"regenerated {GOLDEN_CELLS.name}")
        assert cells == GOLDEN_CELLS.read_text()


def test_timestamp_trusting_policies_lose_to_fifo_under_free_running_clocks():
    """The PR 6 finding: with ``clock_sync="none"`` the gateway stamps
    are garbage, so ordering by them (cloudex, pfo) is *less* fair than
    not ordering at all (noop), while dbo, which never compares stamps
    of different gateways, stays below cloudex."""
    unfairness = {}
    for policy in POLICY_NAMES:
        cluster = CloudExCluster(small_config(fairness_policy=policy, clock_sync="none"))
        cluster.add_default_workload(rate_per_participant=200.0)
        cluster.run(duration_s=0.6)
        unfairness[policy] = cluster.metrics.summary()["inbound_unfairness_true"]
    assert unfairness["cloudex"] > unfairness["noop"]
    assert unfairness["pfo"] > unfairness["noop"]
    assert unfairness["dbo"] < unfairness["cloudex"]


class TestServeFrontDoor:
    RAW = {
        "kind": "fairness",
        "policies": ["cloudex", "noop"],
        "clocks": ["huygens"],
        "scenarios": ["latency_storm"],
        "n_participants": 3,
        "n_gateways": 2,
        "n_symbols": 4,
        "rate_per_participant": 80,
        "warmup_s": 0.1,
        "duration_s": 0.3,
        "name": "tiny",
    }

    def test_normalize_defaults_made_explicit(self):
        spec = normalize_job({"kind": "fairness"})
        assert spec["policies"] == ["cloudex", "dbo", "pfo", "noop"]
        assert spec["clocks"] == ["huygens", "none"]
        assert spec["scenarios"] == list(SCENARIOS)
        assert spec["seeds"] == 1
        assert spec["n_gateways"] == 4

    def test_normalize_rejects_bad_specs(self):
        with pytest.raises(JobError, match="unknown policy"):
            normalize_job({"kind": "fairness", "policies": ["bogus"]})
        with pytest.raises(JobError, match="unknown field"):
            normalize_job({"kind": "fairness", "grid": []})
        with pytest.raises(JobError, match="non-empty list"):
            normalize_job({"kind": "fairness", "clocks": []})

    def test_describe(self):
        spec = normalize_job(self.RAW)
        assert describe(spec) == "fairness tiny: cloudex/noop (2 cell(s))"

    def test_execute_packs_the_frontier_document(self, tmp_path):
        spec = normalize_job(self.RAW)
        cache = ResultCache(str(tmp_path))
        artifacts = execute_job(spec, jobs=1, cache=cache)
        assert artifacts.clean
        document = json.loads(artifacts.report)
        assert set(document["frontier"]) == {"cloudex", "noop"}
        assert len(document["cells"]) == 2
        # Front doors agree: the CLI path emits the same bytes.
        study, labels = tiny_spec()
        frontier, _ = run_fairness_study(study, labels, jobs=1, cache=cache)
        assert artifacts.report.decode("utf-8") == dump_json_document(frontier)
