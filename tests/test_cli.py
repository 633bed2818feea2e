"""Tests for the ``python -m repro`` command-line demo."""

import json
import math

import pytest

from repro.__main__ import (
    SUBCOMMANDS,
    build_chaos_parser,
    build_parser,
    build_trace_parser,
    main,
)
from repro.core.config import MAX_SWEEP_SYMBOLS, MAX_SYMBOLS, MAX_TASKS
from repro.exp.pool import WorkerPool
from repro.runspec import JobError, job_from_args, normalize_job

SWEEP = {"kind": "sweep", "grid": [{"n_shards": 1}]}
PHASES = (
    "injected_delay_phases_us must be a non-empty list of numbers in JSON form, "
    "e.g. [0,400,200]"
)
RATE = "rate_per_participant must be positive and finite"
SEED = "seed must be non-negative, got -"
DURATION = "duration_s must be positive and finite"

#: Every bad input as (job spec, equivalent argv, message): the job is
#: refused with a JobError (HTTP 400 at the API) and the command exits
#: 2 with one ``error:`` line, both carrying the message.  ``None`` is
#: a door the input has no spelling at: the plain and traced runs and
#: shardrun take no job; --grid / --set / --seed-list syntax and the
#: pool flags are not job fields; a key with no flag is JSON-only.
BAD_INPUTS = [
    (None, ["--symbols", "2", "--shards", "3"], "3 shards cannot each own a symbol"),
    (None, ["trace", "--rf", "5"], "replication factor 5"),
    ({"kind": "chaos", "scenario": "nope"}, ["chaos", "--scenario", "nope"],
     "unknown chaos scenario 'nope'"),
    (None, ["shardrun", "--shards", "20", "--symbols", "10"], "n_shards must be in"),
    (None, ["shardrun", "--jobs", "0"], "jobs must be >= 1"),
    ({"kind": "sweep", "grid": [{"bogus": 1}]}, ["sweep", "--grid", "bogus=1"],
     "'bogus' is not a CloudExConfig field"),
    (None, ["sweep", "--grid", "n_shards"], "--grid expects field=v1,v2,..."),
    ({**SWEEP, "base": {"seed": 3}}, ["sweep", "--grid", "n_shards=1", "--set", "seed=3"],
     "set seeds via"),
    ({**SWEEP, "seeds": 0}, ["sweep", "--grid", "n_shards=1", "--seeds", "0"],
     "seeds must be >= 1"),
    (None, ["sweep", "--grid", "n_shards=1", "--seed-list", "a,b"], "--seed-list expects"),
    (None, ["sweep", "--grid", "n_shards=1", "--jobs", "0"], "jobs must be >= 1"),
    ({**SWEEP, "base": {"spike_prob": 1.5}},
     ["sweep", "--grid", "n_shards=1", "--set", "spike_prob=1.5"], "spike_prob must be"),
    ({"kind": "fairness", "seeds": 0}, ["fairness", "--seeds", "0"], "seeds must be >= 1"),
    ({**SWEEP, "base": {"matching_mode": "batch"}},
     ["sweep", "--grid", "n_shards=1", "--set", "matching_mode=batch"],
     "'matching_mode' is not a CloudExConfig field"),
    ({**SWEEP, "base": {"orders_per_participant_per_s": 0}},
     ["sweep", "--grid", "n_shards=1", "--set", "orders_per_participant_per_s=0"],
     "orders_per_participant_per_s must be positive"),
    ({**SWEEP, "base": {"halt_threshold": 0.05}},
     ["sweep", "--grid", "n_shards=1", "--set", "halt_threshold=0.05"],
     "'halt_threshold' is not a CloudExConfig field"),
    ({**SWEEP, "base": {"risk_max_position": 10}},
     ["sweep", "--grid", "n_shards=1", "--set", "risk_max_position=10"],
     "'risk_max_position' is not a CloudExConfig field"),
    ({**SWEEP, "base": {"sync_use_mesh": True}},
     ["sweep", "--grid", "n_shards=1", "--set", "sync_use_mesh=true"],
     "'sync_use_mesh' is not a CloudExConfig field"),
    ({**SWEEP, "base": {"spike_scale": 5}},
     ["sweep", "--grid", "n_shards=1", "--set", "spike_scale=5"],
     "'spike_scale' is not a CloudExConfig field"),
    ({**SWEEP, "base": {"injected_delay_phases_us": "0,400,200"}},
     ["sweep", "--grid", "n_shards=1", "--set", "injected_delay_phases_us=0,400,200"],
     f"{PHASES}; got '0,400,200'"),
    # A rate that is not positive and finite: 0 used to run at the
    # config's 450/s, NaN or inf hung with every gap at 1 ns.
    (None, ["--rate", "nan"], "orders_per_participant_per_s must be positive and finite"),
    (None, ["trace", "--rate", "inf"], "orders_per_participant_per_s must be positive"),
    ({**SWEEP, "rate_per_participant": 0}, ["sweep", "--grid", "n_shards=1", "--rate", "0"],
     "rate_per_participant must be"),
    ({"kind": "fairness", "rate_per_participant": math.inf}, ["fairness", "--rate", "inf"],
     RATE),
    (None, ["shardrun", "--rate", "0"], "rate_per_participant_s must be positive and finite"),
    (None, ["shardrun", "--duration", "nan"], "duration_s must be positive and finite"),
    # "#" separates a storage row key's parts.
    ({**SWEEP, "base": {"symbols": ["A", "A#1"]}},
     ["sweep", "--grid", "n_shards=1", "--set", 'symbols=["A","A#1"]'],
     "symbol 'A#1' contains '#'"),
    ({"kind": "sweep", "grid": [{"n_shardz": 1}]}, ["sweep", "--grid", "n_shardz=1"],
     "'n_shardz' is not a CloudExConfig field"),
    # Negative used to build and silently mean "off".
    ({"kind": "sweep", "grid": [{"snapshot_interval_ms": -5}]},
     ["sweep", "--grid", "snapshot_interval_ms=-5"], "snapshot_interval_ms must be non-negative"),
    ({**SWEEP, "base": {"injected_delay_phases_us": 5}},
     ["sweep", "--grid", "n_shards=1", "--set", "injected_delay_phases_us=5"], PHASES),
    ({**SWEEP, "base": {"injected_delay_phases_us": []}},
     ["sweep", "--grid", "n_shards=1", "--set", "injected_delay_phases_us=[]"], PHASES),
    ({**SWEEP, "base": {"injected_delay_phases_us": [0, "400"]}},
     ["sweep", "--grid", "n_shards=1", "--set", 'injected_delay_phases_us=[0,"400"]'], PHASES),
    ({**SWEEP, "base": {"injected_delay_phases_us": [True]}},
     ["sweep", "--grid", "n_shards=1", "--set", "injected_delay_phases_us=[true]"], PHASES),
    # json.loads parses NaN and Infinity; neither may enter the
    # canonical spec that run_id hashes.
    ({**SWEEP, "rate_per_participant": math.nan},
     ["sweep", "--grid", "n_shards=1", "--rate", "nan"], RATE),
    ({**SWEEP, "rate_per_participant": math.inf},
     ["sweep", "--grid", "n_shards=1", "--rate", "inf"], RATE),
    ({**SWEEP, "duration_s": math.nan}, ["sweep", "--grid", "n_shards=1", "--duration", "nan"],
     "'duration_s' must be a finite number"),
    ({**SWEEP, "warmup_s": math.inf},
     ["sweep", "--grid", "n_shards=1", "--warmup", "inf"], "'warmup_s' must be a finite number"),
    ({"kind": "fairness", "rate_per_participant": math.nan}, ["fairness", "--rate", "nan"], RATE),
    ({**SWEEP, "rate_per_participant": -1}, ["sweep", "--grid", "n_shards=1", "--rate", "-1"],
     RATE),
    ({"kind": "sweep", "grid": [{"n_shards": 1, "rate_per_participant": 0}]},
     ["sweep", "--grid", "n_shards=1", "--grid", "rate_per_participant=0"], RATE),
    ({"kind": "sweep", "grid": [{"n_shards": 1, "rate_per_participant": -1}]},
     ["sweep", "--grid", "n_shards=1", "--grid", "rate_per_participant=-1"], RATE),
    ({"kind": "fairness", "rate_per_participant": 0}, ["fairness", "--rate", "0"], RATE),
    ({"kind": "fairness", "rate_per_participant": -1}, ["fairness", "--rate", "-1"], RATE),
    ({**SWEEP, "grid": [{"seed": 3}]}, ["sweep", "--grid", "seed=3"], "set seeds via"),
    ({"kind": "chaos", "scenario": "kernel-panic"}, ["chaos", "--scenario", "kernel-panic"],
     "unknown chaos scenario 'kernel-panic'"),
    ({"kind": "fairness", "policies": ["bogus"]}, ["fairness", "--policies", "bogus"],
     "unknown policy 'bogus'"),
    ({"kind": "fairness", "clocks": ["sundial"]}, ["fairness", "--clocks", "sundial"],
     "unknown clock regime 'sundial'"),
    ({"kind": "fairness", "scenarios": ["earthquake"]}, ["fairness", "--scenarios", "earthquake"],
     "unknown scenario 'earthquake'"),
    ({"kind": "fairness", "clocks": []}, ["fairness", "--clocks", ""],
     "'clocks' must be a non-empty list of names"),
    ({**SWEEP, "grid": []}, None, "'grid' must be a non-empty list of override dicts"),
    ({**SWEEP, "seeds": [1, "x"]}, None, "'seeds' list must be non-empty integers"),
    ({**SWEEP, "jobs": 4}, None, "unknown field(s) for a sweep job: jobs"),
    ({"kind": "fairness", "grid": []}, None, "unknown field(s) for a fairness job: grid"),
    ({"kind": "chaos"}, None, "'scenario' is required"),
    # numpy's generators take no negative seed.
    (None, ["--seed", "-5"], SEED),
    (None, ["trace", "--seed", "-1"], SEED),
    (None, ["shardrun", "--seed", "-1"], SEED),
    ({"kind": "chaos", "scenario": "smoke", "seed": -1}, ["chaos", "--seed", "-1"], SEED),
    ({**SWEEP, "seeds": [-3]}, ["sweep", "--grid", "n_shards=1", "--seed-list", "-3"], SEED),
    ({"kind": "fairness", "seeds": [-3]}, None, SEED),
    # A run must advance the clock by a finite amount.
    (None, ["--duration", "-1"], DURATION),
    (None, ["--duration", "nan"], DURATION),
    (None, ["trace", "--duration", "-1"], DURATION),
    ({**SWEEP, "duration_s": -1}, ["sweep", "--grid", "n_shards=1", "--duration", "-1"],
     DURATION),
    ({**SWEEP, "warmup_s": -1}, ["sweep", "--grid", "n_shards=1", "--warmup", "-1"],
     "warmup_s must be non-negative and finite"),
    ({"kind": "fairness", "duration_s": -0.5}, ["fairness", "--duration", "-0.5"], DURATION),
    # Every config field carries its own check: NaN, inf and a mistyped
    # value are refused by name, not turned into a traceback or a failed
    # worker task.
    (None, ["--ds", "nan"], "sequencer_delay_us must be non-negative and finite"),
    (None, ["--dh", "inf"], "holdrelease_delay_us must be non-negative and finite"),
    ({**SWEEP, "base": {"sequencer_delay_us": math.nan}},
     ["sweep", "--grid", "n_shards=1", "--set", "sequencer_delay_us=NaN"],
     "sequencer_delay_us must be non-negative and finite"),
    ({**SWEEP, "base": {"snapshot_interval_ms": math.inf}},
     ["sweep", "--grid", "n_shards=1", "--set", "snapshot_interval_ms=Infinity"],
     "snapshot_interval_ms must be non-negative and finite"),
    ({**SWEEP, "base": {"ros_dedup_ttl_s": math.nan}},
     ["sweep", "--grid", "n_shards=1", "--set", "ros_dedup_ttl_s=NaN"],
     "ros_dedup_ttl_s must be positive and finite"),
    ({**SWEEP, "base": {"n_participants": 2.5}},
     ["sweep", "--grid", "n_shards=1", "--set", "n_participants=2.5"],
     "'n_participants' must be an integer, got 2.5"),
    ({**SWEEP, "base": {"spike_prob": "0.1"}},
     ["sweep", "--grid", "n_shards=1", "--set", 'spike_prob="0.1"'],
     "'spike_prob' must be a number, got '0.1'"),
    # A value that would wrap an int64 inside a draw, or size a list at
    # submission, is refused against its ceiling in repro.core.config.
    (None, ["shardrun", "--rate", "1e-30"],
     "rate_per_participant_s must be positive and finite, at least"),
    ({**SWEEP, "rate_per_participant": 1e-30},
     ["sweep", "--grid", "n_shards=1", "--rate", "1e-30"], f"{RATE}, at least"),
    ({**SWEEP, "base": {"straggler_gateways": 1, "straggler_multiplier": 1e30}},
     ["sweep", "--grid", "n_shards=1", "--set", "straggler_gateways=1",
      "--set", "straggler_multiplier=1e30"], "straggler_multiplier must be in [1,1000]"),
    ({**SWEEP, "base": {"injected_phase_seconds": 1e30}},
     ["sweep", "--grid", "n_shards=1", "--set", "injected_phase_seconds=1e30"],
     "injected_phase_seconds must be positive and finite, in [1e-09,"),
    ({"kind": "sweep", "grid": [{"n_symbols": MAX_SYMBOLS + 1}]},
     ["sweep", "--grid", f"n_symbols={MAX_SYMBOLS + 1}"],
     f"n_symbols must be >= 1 and <= {MAX_SYMBOLS}, got {MAX_SYMBOLS + 1}"),
    ({**SWEEP, "seeds": MAX_TASKS + 1},
     ["sweep", "--grid", "n_shards=1", "--seeds", str(MAX_TASKS + 1)],
     f"1 grid points x {MAX_TASKS + 1} seeds exceeds MAX_TASKS={MAX_TASKS}"),
    ({"kind": "fairness", "seeds": MAX_TASKS // 24 + 1},
     ["fairness", "--seeds", str(MAX_TASKS // 24 + 1)],
     f"24 grid points x {MAX_TASKS // 24 + 1} seeds exceeds MAX_TASKS={MAX_TASKS}"),
    ({"kind": "sweep", "grid": [{"n_shards": 1}] * (MAX_TASKS + 1)},
     ["sweep", "--grid", "n_shards=" + ",".join(["1"] * (MAX_TASKS + 1))],
     f"{MAX_TASKS + 1} grid points x 1 seeds exceeds MAX_TASKS={MAX_TASKS}"),
    # MAX_TASKS points at MAX_SYMBOLS symbols each: refused once the
    # configs built so far list MAX_SWEEP_SYMBOLS, not after ~90 s of
    # building all of them.
    ({"kind": "sweep", "grid": [{"n_symbols": MAX_SYMBOLS}] * MAX_TASKS},
     ["sweep", "--grid", f"n_symbols={','.join([str(MAX_SYMBOLS)] * MAX_TASKS)}"],
     f"{MAX_TASKS} grid points list more than MAX_SWEEP_SYMBOLS={MAX_SWEEP_SYMBOLS} symbols"),
    # Refused in a worker, as a failed task, while the strategy checked it.
    ({**SWEEP, "base": {"market_order_fraction": 0.6, "cancel_fraction": 0.6}},
     ["sweep", "--grid", "n_shards=1", "--set", "market_order_fraction=0.6",
      "--set", "cancel_fraction=0.6"], "market_order_fraction + cancel_fraction must be <= 1"),
    # The pool flags carry ServeConfig's checks at every door: a zero
    # timeout timed out every task (exit 1), NaN meant no timeout, and
    # -1 retries was a traceback.
    (None, ["sweep", "--grid", "n_shards=1", "--jobs", "2", "--timeout", "0"],
     "timeout_s must be positive and finite, got 0.0"),
    (None, ["sweep", "--grid", "n_shards=1", "--timeout", "nan"],
     "timeout_s must be positive and finite, got nan"),
    (None, ["sweep", "--grid", "n_shards=1", "--retries", "-1"],
     "retries must be non-negative, got -1"),
    (None, ["fairness", "--jobs", "2", "--timeout", "0"],
     "timeout_s must be positive and finite, got 0.0"),
    (None, ["fairness", "--timeout", "nan"], "timeout_s must be positive and finite, got nan"),
    (None, ["fairness", "--retries", "-1"], "retries must be non-negative, got -1"),
]



class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.participants == 12
        assert args.clock_sync == "huygens"

    def test_flag_parsing(self):
        args = build_parser().parse_args(
            ["--rf", "3", "--ddp", "0.01", "--duration", "0.5"]
        )
        assert args.rf == 3
        assert args.ddp == 0.01
        assert args.duration == 0.5

    def test_bad_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--clock-sync", "chrony"])

    def test_matching_design_is_not_a_flag(self, capsys):
        # The cluster has one matching design, continuous price-time,
        # so the word is argparse's to refuse.
        with pytest.raises(SystemExit) as excinfo:
            main(["--matching", "batch"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --matching" in capsys.readouterr().err

    def test_help_lists_every_subcommand(self, capsys):
        # The full subcommand surface, pinned: adding one means adding
        # it here, to the dispatcher, and to the --help epilog.
        assert SUBCOMMANDS == (
            "trace", "chaos", "sweep", "fairness", "shardrun", "serve", "verify-pack"
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out

    def test_sweep_and_fairness_share_the_pool_flags(self):
        from repro.exp.cli import build_sweep_parser
        from repro.fairness.cli import build_fairness_parser

        dests = {"jobs", "timeout", "retries", "no_cache", "cache_dir", "cache_max_mb"}

        def pool_actions(parser):
            return {
                action.dest: (
                    type(action), action.option_strings, action.default, action.type,
                    action.nargs, action.const, action.metavar, action.help,
                )
                for action in parser._actions
                if action.dest in dests
            }

        sweep = pool_actions(build_sweep_parser())
        assert set(sweep) == dests
        assert pool_actions(build_fairness_parser()) == sweep

    def test_chaos_parser_defaults(self):
        args = build_chaos_parser().parse_args([])
        assert args.scenario == "smoke"
        assert args.seed == 11
        assert not args.json
        assert not args.strict

    @pytest.mark.parametrize(
        "kind, argv, job",
        [
            ("sweep", ["--grid", "n_shards=1"], {"grid": [{"n_shards": 1}]}),
            ("fairness", [], {}),
            # The one flag default that is not the job's: a job names its scenario.
            ("chaos", [], {"scenario": "smoke"}),
        ],
    )
    def test_flag_defaults_are_the_job_defaults(self, kind, argv, job):
        from repro.exp.cli import build_sweep_parser
        from repro.fairness.cli import build_fairness_parser

        parser = {"sweep": build_sweep_parser, "fairness": build_fairness_parser,
                  "chaos": build_chaos_parser}[kind]()
        assert job_from_args(kind, parser.parse_args(argv)) == normalize_job({"kind": kind, **job})


class TestMain:
    def test_runs_and_prints_report(self, capsys):
        code = main(
            [
                "--participants", "4",
                "--gateways", "2",
                "--symbols", "4",
                "--duration", "0.2",
                "--rate", "100",
                "--clock-sync", "perfect",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CloudEx run" in out
        assert "orders matched" in out

    def test_trace_subcommand(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace",
                "--duration", "0.2",
                "--seed", "7",
                "--clock-sync", "perfect",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Latency breakdown" in out
        assert "end_to_end" in out
        assert "ROS critical-path attribution" in out
        counters = out[out.index("Operational counters"):]
        assert "ros.duplicates_dropped" in counters and "engine.shard0.queue_depth" in counters
        assert out_path.exists()
        assert out_path.read_text().startswith("{")

    def test_trace_parser_defaults(self):
        args = build_trace_parser().parse_args([])
        assert args.rf == 2
        assert args.sample_rate == 1.0
        assert args.out == "trace.jsonl"

    def test_chaos_subcommand_text_report(self, capsys):
        code = main(["chaos", "--scenario", "smoke", "--seed", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "smoke" in out
        assert "verdict" in out.lower() or "OK" in out

    def test_chaos_subcommand_json(self, capsys):
        code = main(["chaos", "--scenario", "smoke", "--seed", "11", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "smoke"
        assert payload["ok"] is True

    def test_chaos_strict_exit_code_on_violations(self, capsys):
        code = main(["chaos", "--scenario", "gateway-crash-rf1", "--strict"])
        assert code == 1
        assert "order_loss" in capsys.readouterr().out

    def test_chaos_list(self, capsys):
        code = main(["chaos", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "smoke" in out
        assert "gateway-crash-rf2-failover" in out

    def test_sweep_subcommand_writes_deterministic_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # keep .repro-cache out of the repo
        out_path = tmp_path / "sweep.json"
        argv = [
            "sweep",
            "--grid", "n_shards=1,2",
            "--set", "n_participants=4",
            "--set", "n_gateways=2",
            "--set", "n_symbols=4",
            "--set", "subscriptions_per_participant=2",
            "--seeds", "1",
            "--warmup", "0.05",
            "--duration", "0.1",
            "--rate", "100",
            "--json", str(out_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "n_shards" in out and "throughput_per_s" in out
        document = json.loads(out_path.read_text())
        assert document["sweep"] == "sweep"
        assert len(document["points"]) == 2
        assert all(not entry["failed"] for entry in document["points"])

        # Cached re-run at a different job count: byte-identical JSON.
        rerun_path = tmp_path / "sweep2.json"
        argv2 = [a if a != str(out_path) else str(rerun_path) for a in argv]
        argv2 += ["--jobs", "2"]
        assert main(argv2) == 0
        assert rerun_path.read_bytes() == out_path.read_bytes()

    def test_sweep_pool_flags_are_the_pools_policy(self, capsys, monkeypatch):
        # One task far longer than --timeout, and --retries 0: the task
        # fails on its only attempt, and the sweep exits 1 saying why.
        pools = []

        class RecordedPool(WorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr("repro.exp.cli.WorkerPool", RecordedPool)
        argv = ["sweep", "--grid", "n_shards=1", "--jobs", "2", "--timeout", "0.5",
                "--retries", "0", "--duration", "60", "--no-cache"]
        assert main(argv) == 1
        assert "timed out after 0.5s" in capsys.readouterr().err
        (pool,) = pools
        assert pool.stats["timeouts"] == 1  # no retry

    def test_sweep_requires_a_grid(self, capsys):
        assert main(["sweep"]) == 2
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "job, argv, complaint",
        BAD_INPUTS,
        # The form pytest gave the table before it had a job column, so
        # every case keeps its name.
        ids=[f"argv{i}-{complaint}" for i, (_, _, complaint) in enumerate(BAD_INPUTS)],
    )
    def test_invalid_configuration_is_a_usage_error(self, capsys, job, argv, complaint):
        # A served job is refused with the message the CLI prints.
        if job is not None:
            with pytest.raises(JobError) as refused:
                normalize_job(job)
            assert complaint in str(refused.value)
        # Exit 1 is reserved for "the run completed but something it
        # measured failed"; a config or spec that cannot be built never ran.
        if argv is not None:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error: ") and complaint in line


class TestUnifiedJsonOutput:
    """Every subcommand's --json takes an optional PATH ('-' = stdout)
    and emits the same canonical shape (sorted keys, 2-space indent,
    trailing newline)."""

    def test_chaos_json_to_file_matches_stdout_bytes(self, capsys, tmp_path):
        assert main(["chaos", "--scenario", "smoke", "--seed", "11", "--json"]) == 0
        stdout_bytes = capsys.readouterr().out
        out_path = tmp_path / "chaos.json"
        assert main(
            ["chaos", "--scenario", "smoke", "--seed", "11", "--json", str(out_path)]
        ) == 0
        assert out_path.read_text() == stdout_bytes
        payload = json.loads(stdout_bytes)
        assert payload["scenario"] == "smoke"

    def test_sweep_json_bare_prints_the_file_bytes(self, capsys, tmp_path, monkeypatch):
        """Regression: sweep's hand-written flag required a PATH."""
        monkeypatch.chdir(tmp_path)  # keep .repro-cache out of the repo
        argv = [
            "sweep",
            "--grid", "n_shards=1",
            "--set", "n_participants=4",
            "--set", "n_gateways=2",
            "--set", "n_symbols=4",
            "--seeds", "1",
            "--warmup", "0.05",
            "--duration", "0.1",
            "--rate", "100",
            "--json",
        ]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out_path = tmp_path / "sweep.json"
        assert main(argv + [str(out_path)]) == 0
        assert stdout.endswith(out_path.read_text())
        assert json.loads(out_path.read_text())["sweep"] == "sweep"

    def test_trace_json_summary(self, capsys, tmp_path):
        code = main(
            [
                "trace",
                "--duration", "0.2",
                "--seed", "7",
                "--clock-sync", "perfect",
                "--out", str(tmp_path / "trace.jsonl"),
                "--json", str(tmp_path / "trace.json"),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert payload["trace"] == {"seed": 7, "duration_s": 0.2}
        assert payload["traces"] >= payload["completed"] > 0
        assert {"gw_ingress", "match", "cancel"} <= set(payload["spans_by_kind"])


class TestServeCli:
    def test_serve_parser_defaults(self):
        from repro.serve.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.port == 8321
        assert args.data_dir == ".repro-serve"
        assert args.client == []
        assert args.jobs == 1

    def test_serve_rejects_malformed_client(self, capsys):
        assert main(["serve", "--client", "no-token-here"]) == 2
        assert "NAME=TOKEN" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, field",
        [
            # A traceback (exit 1) after runs.sqlite3 was created.
            (["--rate", "0"], "rate_per_s"),
            (["--burst", "0"], "burst"),
            (["--jobs", "0"], "jobs"),
            (["--port", "-1"], "port"),
            (["--port", "70000"], "port"),
            # A server that started: NaN never throttles, and with -1
            # retries every job failed inside the pool.
            (["--rate", "nan"], "rate_per_s"),
            (["--rate", "inf"], "rate_per_s"),
            (["--timeout", "-1"], "timeout_s"),
            (["--timeout", "nan"], "timeout_s"),
            (["--retries", "-1"], "retries"),
        ],
    )
    def test_serve_refuses_a_bad_flag_before_opening_the_store(
        self, capsys, monkeypatch, tmp_path, flags, field
    ):
        from repro.serve.api import ReproServer

        # A server that does start serves on a thread and stops at once.
        monkeypatch.setattr(ReproServer, "serve_forever", ReproServer.start)
        data_dir = tmp_path / "data"
        assert main(["serve", "--port", "0", "--data-dir", str(data_dir), *flags]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and field in line
        assert not data_dir.exists()


class TestVerifyPackCli:
    def _pack(self, tmp_path):
        from repro.serve.evidence import write_pack

        write_pack(
            tmp_path / "pack",
            run_id="run-1",
            kind="chaos",
            spec={"kind": "chaos", "scenario": "smoke", "seed": 11},
            code_version="v1",
            report=b"{}\n",
            trace=b"",
            clean=True,
            violations=[],
            secret="s3cret",
        )
        return tmp_path / "pack"

    def test_valid_pack_exits_zero(self, capsys, tmp_path):
        pack = self._pack(tmp_path)
        assert main(["verify-pack", str(pack), "--secret", "s3cret"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out and "certified clean" in out

    def test_tampered_pack_exits_nonzero(self, capsys, tmp_path):
        pack = self._pack(tmp_path)
        (pack / "report.json").write_bytes(b'{"tampered": true}\n')
        assert main(["verify-pack", str(pack), "--secret", "s3cret"]) == 1
        out = capsys.readouterr().out
        assert "VERIFICATION FAILED" in out
        assert "FAIL:" in out

    def test_json_output(self, capsys, tmp_path):
        pack = self._pack(tmp_path)
        assert main(["verify-pack", str(pack), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-pack-verification/1"
        assert payload["ok"] is True
