"""Tests for the ``python -m repro`` command-line demo."""

import pytest

import json

from repro.__main__ import (
    SUBCOMMANDS,
    build_chaos_parser,
    build_parser,
    build_trace_parser,
    main,
)


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
        # The cluster matches continuously; FBA is the standalone
        # repro.core.batchauction, so the word is argparse's to refuse.
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

    def test_chaos_parser_defaults(self):
        args = build_chaos_parser().parse_args([])
        assert args.scenario == "smoke"
        assert args.seed == 11
        assert not args.json
        assert not args.strict


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

    def test_sweep_requires_a_grid(self, capsys):
        assert main(["sweep"]) == 2
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["--symbols", "2", "--shards", "3"], "3 shards cannot each own a symbol"),
            (["trace", "--rf", "5"], "replication factor 5"),
            (["chaos", "--scenario", "nope"], "unknown chaos scenario 'nope'"),
            (["shardrun", "--shards", "20", "--symbols", "10"], "n_shards must be in"),
            (["shardrun", "--jobs", "0"], "jobs must be >= 1"),
            (["sweep", "--grid", "bogus=1"], "'bogus' is not a CloudExConfig field"),
            (["sweep", "--grid", "n_shards"], "--grid expects field=v1,v2,..."),
            (["sweep", "--grid", "n_shards=1", "--set", "seed=3"], "set seeds via"),
            (["sweep", "--grid", "n_shards=1", "--seeds", "0"], "seeds must be >= 1"),
            (["sweep", "--grid", "n_shards=1", "--seed-list", "a,b"], "--seed-list expects"),
            (["sweep", "--grid", "n_shards=1", "--jobs", "0"], "jobs must be >= 1"),
            (["sweep", "--grid", "n_shards=1", "--set", "spike_scale=1"], "spike_scale must be"),
            (["fairness", "--seeds", "0"], "seeds must be >= 1"),
            (
                ["sweep", "--grid", "n_shards=1", "--set", "matching_mode=batch"],
                "'matching_mode' is not a CloudExConfig field",
            ),
            (
                ["sweep", "--grid", "n_shards=1", "--set", "initial_book_qty=0"],
                "initial_book_qty must be positive",
            ),
        ],
    )
    def test_invalid_configuration_is_a_usage_error(self, capsys, argv, complaint):
        # Exit 1 is reserved for "the run completed but something it
        # measured failed"; a config or spec that cannot be built never ran.
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
