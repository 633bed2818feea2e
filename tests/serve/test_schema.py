"""Job-spec normalization and content-addressed identity."""

import pytest

from repro.runspec import (
    JOB_KINDS,
    SCHEMA,
    JobError,
    build_sweep_spec,
    describe,
    job_key,
    normalize_job,
)

SWEEP_RAW = {
    "kind": "sweep",
    "grid": [{"n_shards": 1}, {"n_shards": 2}],
    "seeds": 2,
    "warmup_s": 0.05,
    "duration_s": 0.1,
    "rate_per_participant": 100,
    "base": {"n_participants": 4, "n_gateways": 2, "n_symbols": 4,
             "subscriptions_per_participant": 2},
}


class TestNormalizeSweep:
    def test_defaults_made_explicit(self):
        spec = normalize_job(SWEEP_RAW)
        assert spec["schema"] == SCHEMA
        assert spec["kind"] == "sweep"
        assert spec["name"] == "sweep"
        assert spec["master_seed"] == 0
        assert spec["rate_per_participant"] == 100.0

    def test_field_order_and_spelled_out_defaults_share_identity(self):
        # Two clients describing the same experiment differently must
        # land on the same run_id -- this is what makes dedup work.
        terse = normalize_job(SWEEP_RAW)
        verbose_raw = dict(reversed(list(SWEEP_RAW.items())))
        verbose_raw["name"] = "sweep"
        verbose_raw["master_seed"] = 0
        verbose_raw["schema"] = SCHEMA
        verbose = normalize_job(verbose_raw)
        assert terse == verbose
        assert job_key(terse, "v1") == job_key(verbose, "v1")

    def test_key_covers_spec_and_code_version(self):
        spec = normalize_job(SWEEP_RAW)
        other = normalize_job({**SWEEP_RAW, "seeds": 3})
        assert job_key(spec, "v1") != job_key(other, "v1")
        assert job_key(spec, "v1") != job_key(spec, "v2")

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError, match="unknown field"):
            normalize_job({**SWEEP_RAW, "jobs": 4})

    def test_empty_grid_rejected(self):
        with pytest.raises(JobError, match="grid"):
            normalize_job({**SWEEP_RAW, "grid": []})

    def test_bad_config_field_caught_at_submission(self):
        with pytest.raises(JobError, match="invalid sweep spec"):
            normalize_job({**SWEEP_RAW, "grid": [{"n_shardz": 1}]})
        # ... and so is a value no config can be built from.
        bad_base = {**SWEEP_RAW["base"], "spike_prob": 1.5}
        with pytest.raises(JobError, match=r"invalid sweep spec: .*spike_prob must be in \[0,1\]"):
            normalize_job({**SWEEP_RAW, "base": bad_base})
        # ... or one that used to build and silently mean "off".
        with pytest.raises(JobError, match="snapshot_interval_ms must be non-negative"):
            normalize_job({**SWEEP_RAW, "grid": [{"snapshot_interval_ms": -5}]})
        # The cluster has one matching design; the old knob is just an unknown field.
        with pytest.raises(JobError, match="'matching_mode' is not a CloudExConfig field"):
            normalize_job({**SWEEP_RAW, "base": {**SWEEP_RAW["base"], "matching_mode": "batch"}})
        # Nor is there a pre-trade risk cap any more.
        with pytest.raises(JobError, match="'risk_max_position' is not a CloudExConfig field"):
            normalize_job({**SWEEP_RAW, "base": {**SWEEP_RAW["base"], "risk_max_position": 10}})
        # Nor a clock-sync mesh.
        with pytest.raises(JobError, match="'sync_use_mesh' is not a CloudExConfig field"):
            normalize_job({**SWEEP_RAW, "base": {**SWEEP_RAW["base"], "sync_use_mesh": True}})

    @pytest.mark.parametrize("phases", ["0,400,200", 5, [], [0, "400"], [True]])
    def test_malformed_tuple_field_names_the_field(self, phases):
        bad_base = {**SWEEP_RAW["base"], "injected_delay_phases_us": phases}
        with pytest.raises(
            JobError, match=r"injected_delay_phases_us must be a non-empty list .*\[0,400,200\]"
        ):
            normalize_job({**SWEEP_RAW, "base": bad_base})

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_number_rejected(self, rate):
        # json.loads parses NaN and Infinity; neither may enter the
        # canonical spec that run_id hashes.
        with pytest.raises(JobError, match="rate_per_participant must be positive and finite"):
            normalize_job({**SWEEP_RAW, "rate_per_participant": rate})
        with pytest.raises(JobError, match="'duration_s' must be a finite number"):
            normalize_job({**SWEEP_RAW, "duration_s": rate})
        with pytest.raises(JobError, match="rate_per_participant must be positive and finite"):
            normalize_job({"kind": "fairness", "rate_per_participant": rate})

    @pytest.mark.parametrize("rate", [0, -1])
    def test_rate_not_positive_rejected(self, rate):
        # A rate of 0 used to run at the config's 450 orders/s.
        with pytest.raises(JobError, match="invalid sweep spec: grid point .* must be positive"):
            normalize_job({**SWEEP_RAW, "rate_per_participant": rate})
        point = [{"n_shards": 1, "rate_per_participant": rate}]
        with pytest.raises(JobError, match="rate_per_participant must be positive"):
            normalize_job({**SWEEP_RAW, "grid": point})
        with pytest.raises(JobError, match="invalid fairness spec: .* must be positive"):
            normalize_job({"kind": "fairness", "rate_per_participant": rate})

    def test_seed_override_in_grid_rejected(self):
        with pytest.raises(JobError, match="invalid sweep spec"):
            normalize_job({**SWEEP_RAW, "grid": [{"seed": 3}]})

    def test_explicit_seed_list_accepted(self):
        spec = normalize_job({**SWEEP_RAW, "seeds": [7, 9]})
        tasks = build_sweep_spec(spec).expand()
        assert [t.seed for t in tasks] == [7, 9, 7, 9]

    def test_bad_seeds_rejected(self):
        with pytest.raises(JobError, match="seeds"):
            normalize_job({**SWEEP_RAW, "seeds": 0})
        with pytest.raises(JobError, match="seeds"):
            normalize_job({**SWEEP_RAW, "seeds": [1, "x"]})

    def test_build_sweep_spec_matches_cli_construction(self):
        from repro.exp.spec import SweepSpec

        spec = normalize_job(SWEEP_RAW)
        built = build_sweep_spec(spec)
        direct = SweepSpec(
            name="sweep",
            grid=[{"n_shards": 1}, {"n_shards": 2}],
            seeds=2,
            master_seed=0,
            warmup_s=0.05,
            duration_s=0.1,
            rate_per_participant=100.0,
            base=SWEEP_RAW["base"],
        )
        assert [t.key for t in built.expand()] == [t.key for t in direct.expand()]
        assert [t.seed for t in built.expand()] == [t.seed for t in direct.expand()]


class TestNormalizeChaosAndBench:
    def test_chaos_defaults(self):
        spec = normalize_job({"kind": "chaos", "scenario": "smoke"})
        assert spec == {"kind": "chaos", "scenario": "smoke", "seed": 11,
                        "schema": SCHEMA}

    def test_chaos_unknown_scenario_rejected(self):
        with pytest.raises(JobError, match="unknown chaos scenario"):
            normalize_job({"kind": "chaos", "scenario": "kernel-panic"})

    def test_chaos_scenario_required(self):
        with pytest.raises(JobError, match="scenario"):
            normalize_job({"kind": "chaos"})

    def test_bench_kind_retired(self):
        # `python3 -m bench` is the one perf harness; it is not a job.
        with pytest.raises(JobError, match="'kind' must be one of sweep, chaos, fairness"):
            normalize_job({"kind": "bench"})


class TestEnvelope:
    def test_non_object_rejected(self):
        with pytest.raises(JobError, match="JSON object"):
            normalize_job([1, 2])

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="kind"):
            normalize_job({"kind": "train"})
        assert JOB_KINDS == ("sweep", "chaos", "fairness")

    def test_unknown_schema_rejected(self):
        with pytest.raises(JobError, match="schema"):
            normalize_job({"kind": "chaos", "scenario": "smoke",
                           "schema": "repro-job/999"})

    def test_describe_one_liners(self):
        assert "2 point(s) x 2 seed(s)" in describe(normalize_job(SWEEP_RAW))
        assert "chaos smoke" in describe(
            normalize_job({"kind": "chaos", "scenario": "smoke"})
        )
        assert "fairness f: cloudex/noop (2 cell(s))" == describe(normalize_job({
            "kind": "fairness", "name": "f", "policies": ["cloudex", "noop"],
            "clocks": ["huygens"], "scenarios": ["latency_storm"],
        }))
