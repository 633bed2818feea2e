"""End-to-end tests of the HTTP control plane.

The expensive tests each run one (tiny) simulation through the full
submit -> execute -> evidence-pack -> download -> offline-verify loop,
including the two headline acceptance properties:

- a report served from an evidence pack is byte-identical to the same
  spec run directly through the CLI runners, and
- two clients submitting the identical job share one execution and
  receive byte-identical packs (dedup by content-addressed identity).
"""

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

from repro.serve.api import MAX_BODY_BYTES, ReproServer, ServeConfig
from repro.serve.evidence import verify_pack
from tests.procutil import children_of, requires_proc, subprocess_env, survivors
from tests.serve.conftest import SECRET, request, serve_config, wait_for_run

CHAOS_SMOKE = {"kind": "chaos", "scenario": "smoke", "seed": 11}

TINY_SWEEP = {
    "kind": "sweep",
    "grid": [{"n_shards": 1}],
    "seeds": 1,
    "warmup_s": 0.05,
    "duration_s": 0.1,
    "rate_per_participant": 100,
    "base": {"n_participants": 4, "n_gateways": 2, "n_symbols": 4,
             "subscriptions_per_participant": 2},
}


class TestAuthAndRouting:
    def test_healthz_needs_no_auth(self, server):
        status, body = request(server, "GET", "/healthz", client=None)
        assert status == 200
        assert body["ok"] is True
        assert body["runs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}
        assert body["pool"] == {
            "spawned": 0, "respawned": 0, "tasks": 0, "crashes": 0, "timeouts": 0,
        }

    def test_kept_alive_connection_replies_without_a_stall(self, server):
        """Headers and body leave in one write: sent as two, the second
        sits out the client's delayed ACK (~40 ms) on every reply of a
        kept-alive connection."""
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        round_trips = []
        try:
            for _ in range(12):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                body = json.loads(response.read())
                round_trips.append(time.perf_counter() - started)
                assert response.status == 200 and body["ok"] is True
        finally:
            connection.close()
        assert statistics.median(round_trips) < 0.020, round_trips

    def test_missing_credential_is_401(self, server):
        status, body = request(server, "GET", "/v1/runs", client=None)
        assert status == 401
        assert "bearer" in body["error"].lower()

    def test_wrong_token_is_401(self, server):
        import urllib.error
        import urllib.request

        req = urllib.request.Request(server.url + "/v1/runs")
        req.add_header("Authorization", "Bearer alice:wrong-token")
        try:
            with urllib.request.urlopen(req, timeout=10) as response:
                status = response.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 401

    def test_unknown_run_is_404(self, server):
        status, body = request(server, "GET", "/v1/runs/nope")
        assert status == 404
        assert "unknown run" in body["error"]

    def test_unknown_route_is_404(self, server):
        status, _ = request(server, "GET", "/v2/everything")
        assert status == 404

    def test_invalid_job_is_400(self, server):
        status, body = request(
            server, "POST", "/v1/jobs", body={"kind": "chaos", "scenario": "nope"}
        )
        assert status == 400
        assert "unknown chaos scenario" in body["error"]
        status, body = request(server, "POST", "/v1/jobs", body={"kind": "bench"})
        assert status == 400
        assert body["error"] == "'kind' must be one of sweep, chaos, fairness"
        # A config value the builder would refuse is refused here, not in a worker.
        bad_base = {**TINY_SWEEP, "base": {**TINY_SWEEP["base"], "spike_scale": 1.0}}
        status, body = request(server, "POST", "/v1/jobs", body=bad_base)
        assert status == 400
        assert "spike_scale must be >= 2" in body["error"]

    def test_non_json_body_is_400(self, server):
        import urllib.error
        import urllib.request

        req = urllib.request.Request(server.url + "/v1/jobs", method="POST")
        req.add_header("Authorization", "Bearer alice:tok-alice")
        try:
            with urllib.request.urlopen(req, data=b"not json", timeout=10) as response:
                status = response.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 400

    def test_oversized_body_is_413(self, server):
        padding = "x" * (MAX_BODY_BYTES + 1)
        status, body = request(server, "POST", "/v1/jobs", body={"pad": padding})
        assert status == 413

    def test_rate_limit_is_429(self, tmp_path):
        config = ServeConfig(
            host="127.0.0.1",
            port=0,
            data_dir=str(tmp_path / "throttled"),
            secret=SECRET,
            clients={"alice": "tok-alice", "bob": "tok-bob"},
            rate_per_s=0.01,
            burst=2,
        )
        server = ReproServer(config)
        server.start()
        try:
            codes = [request(server, "GET", "/v1/runs")[0] for _ in range(3)]
            assert codes == [200, 200, 429]
            # Budgets are per client: bob is not throttled by alice.
            assert request(server, "GET", "/v1/runs", client="bob")[0] == 200
        finally:
            server.stop()


class TestChaosEvidenceFlow:
    def test_clean_scenario_yields_certified_pack_matching_cli(
        self, server, tmp_path, capsys
    ):
        status, submitted = request(server, "POST", "/v1/jobs", body=CHAOS_SMOKE)
        assert status == 202
        assert submitted["created"] is True
        run_id = submitted["run_id"]

        record = wait_for_run(server, run_id)
        assert record["status"] == "done", record.get("error")
        assert record["certified"] is True
        assert record["executions"] == 1
        assert sorted(record["artifacts"]) == [
            "certificate.json", "manifest.json", "report.json", "trace.jsonl",
        ]

        # Download the whole pack and verify it offline, as an auditor
        # on another machine would.
        downloaded = tmp_path / "downloaded-pack"
        downloaded.mkdir()
        for artifact in record["artifacts"]:
            status, data = request(
                server, "GET", f"/v1/runs/{run_id}/pack/{artifact}", raw=True
            )
            assert status == 200
            (downloaded / artifact).write_bytes(data)
        verification = verify_pack(downloaded, secret=SECRET)
        assert verification["ok"] is True, verification["problems"]
        assert verification["certified"] is True
        certificate = json.loads((downloaded / "certificate.json").read_text())
        assert certificate["claim"] == "chaos-invariants-clean"
        assert certificate["run_id"] == run_id

        # The acceptance property: the served report is byte-identical
        # to what `python -m repro chaos --json` prints for the same
        # scenario and seed (the HTTP run traces, the CLI run doesn't
        # -- tracing must be unobservable in the report).
        from repro.__main__ import main

        assert main(["chaos", "--scenario", "smoke", "--seed", "11", "--json"]) == 0
        cli_bytes = capsys.readouterr().out.encode("utf-8")
        assert (downloaded / "report.json").read_bytes() == cli_bytes

        # Traces came along for free and are non-empty for chaos runs.
        assert (downloaded / "trace.jsonl").read_bytes().startswith(b"{")

        # Resubmitting a finished run is a dedup no-op.
        status, resubmitted = request(server, "POST", "/v1/jobs", body=CHAOS_SMOKE)
        assert status == 202
        assert resubmitted["created"] is False
        assert resubmitted["run_id"] == run_id
        assert resubmitted["status"] == "done"

    def test_violating_scenario_yields_triage_not_certificate(self, server):
        job = {"kind": "chaos", "scenario": "gateway-crash-rf1", "seed": 11}
        _, submitted = request(server, "POST", "/v1/jobs", body=job)
        record = wait_for_run(server, submitted["run_id"])
        assert record["status"] == "done", record.get("error")
        assert record["certified"] is False
        assert "triage.json" in record["artifacts"]
        assert "certificate.json" not in record["artifacts"]

        status, triage_bytes = request(
            server, "GET", f"/v1/runs/{submitted['run_id']}/pack/triage.json",
            raw=True,
        )
        assert status == 200
        triage = json.loads(triage_bytes)
        assert triage["violation_count"] >= 1
        assert any(v["invariant"] == "order_loss" for v in triage["violations"])

        # A certificate cannot be downloaded because none was issued.
        status, _ = request(
            server, "GET", f"/v1/runs/{submitted['run_id']}/pack/certificate.json"
        )
        assert status == 404


class TestDedupAcrossClients:
    def test_identical_jobs_share_one_execution_and_identical_packs(self, server):
        # Satellite acceptance: alice and bob race the same sweep spec
        # (spelled with different field orders); the run executes once
        # and both download byte-identical evidence packs.
        bob_spelling = dict(reversed(list(TINY_SWEEP.items())))
        submissions = {}
        barrier = threading.Barrier(2)

        def submit(client, body):
            barrier.wait()
            submissions[client] = request(server, "POST", "/v1/jobs",
                                          client=client, body=body)

        threads = [
            threading.Thread(target=submit, args=("alice", TINY_SWEEP)),
            threading.Thread(target=submit, args=("bob", bob_spelling)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        (status_a, alice), (status_b, bob) = submissions["alice"], submissions["bob"]
        assert status_a == 202 and status_b == 202
        assert alice["run_id"] == bob["run_id"]
        assert [alice["created"], bob["created"]].count(True) == 1

        record = wait_for_run(server, alice["run_id"])
        assert record["status"] == "done", record.get("error")
        assert record["executions"] == 1  # deduped: one execution total

        for artifact in record["artifacts"]:
            path = f"/v1/runs/{alice['run_id']}/pack/{artifact}"
            _, alice_bytes = request(server, "GET", path, client="alice", raw=True)
            _, bob_bytes = request(server, "GET", path, client="bob", raw=True)
            assert alice_bytes == bob_bytes

    def test_sweep_report_matches_direct_runner_bytes(self, server):
        from repro.cliutil import dump_json_document
        from repro.exp.runner import run_sweep
        from repro.serve.schema import build_sweep_spec, normalize_job

        _, submitted = request(server, "POST", "/v1/jobs", body=TINY_SWEEP)
        record = wait_for_run(server, submitted["run_id"])
        assert record["status"] == "done", record.get("error")
        assert record["certified"] is True  # zero failed tasks

        _, served = request(
            server, "GET", f"/v1/runs/{submitted['run_id']}/pack/report.json",
            raw=True,
        )
        outcome = run_sweep(build_sweep_spec(normalize_job(TINY_SWEEP)), jobs=1)
        assert served == dump_json_document(outcome.document).encode("utf-8")


class TestListingAndRecovery:
    def test_run_listing_filters_by_status(self, server):
        _, submitted = request(server, "POST", "/v1/jobs", body=CHAOS_SMOKE)
        wait_for_run(server, submitted["run_id"])
        status, listing = request(server, "GET", "/v1/runs?status=done")
        assert status == 200
        assert [r["run_id"] for r in listing["runs"]] == [submitted["run_id"]]
        status, listing = request(server, "GET", "/v1/runs?status=failed")
        assert listing["runs"] == []
        status, _ = request(server, "GET", "/v1/runs?status=exploded")
        assert status == 400

    def test_jobs_alias_returns_the_run_record(self, server):
        _, submitted = request(server, "POST", "/v1/jobs", body=CHAOS_SMOKE)
        status, via_jobs = request(server, "GET", f"/v1/jobs/{submitted['run_id']}")
        assert status == 200
        assert via_jobs["run_id"] == submitted["run_id"]
        assert via_jobs["description"] == "chaos smoke (seed=11)"

    def test_interrupted_run_is_requeued_and_executed_at_next_start(self, tmp_path):
        # What a server leaves behind when it goes down (killed, or shut
        # down with a run it had to abandon): a row still ``running``.
        from repro.exp.cache import code_version_hash
        from repro.serve.schema import job_key, normalize_job
        from repro.serve.store import RunStore

        config = serve_config(tmp_path)
        spec, code = normalize_job(CHAOS_SMOKE), code_version_hash()
        run_id = job_key(spec, code)
        store = RunStore(os.path.join(config.data_dir, "runs.sqlite3"))
        assert store.submit(run_id, spec, code, submitted_by="alice")
        assert store.claim_next()["run_id"] == run_id
        store.close()

        server = ReproServer(config)
        assert server.recovered_runs == 1
        server.start()
        try:
            record = wait_for_run(server, run_id)
        finally:
            server.stop()
        assert record["status"] == "done", record.get("error")
        assert record["executions"] == 2  # the interrupted attempt counts

    def test_persisted_run_of_a_retired_kind_fails_and_the_queue_moves_on(self, tmp_path):
        # A data directory written by a build that still served ``bench``
        # jobs: the interrupted run is re-queued like any other.
        from repro.serve.store import RunStore

        config = serve_config(tmp_path)
        spec = {"kind": "bench", "suite": "all", "quick": True, "repeats": 1,
                "schema": "repro-job/1"}
        store = RunStore(os.path.join(config.data_dir, "runs.sqlite3"))
        assert store.submit("old-bench-run", spec, "an-older-build", submitted_by="alice")
        assert store.claim_next()["run_id"] == "old-bench-run"
        store.close()

        server = ReproServer(config)
        assert server.recovered_runs == 1
        server.start()
        try:
            old = wait_for_run(server, "old-bench-run")
            _, submitted = request(server, "POST", "/v1/jobs", body=CHAOS_SMOKE)
            new = wait_for_run(server, submitted["run_id"])
        finally:
            server.stop()
        assert old["status"] == "failed"
        assert "ValueError: unknown job kind 'bench'" in old["error"]
        assert old["description"] == "bench (unknown job kind)"
        assert new["status"] == "done", new.get("error")


def _sweep_job(master_seed):
    return {**TINY_SWEEP, "grid": [{"n_shards": 1}, {"n_shards": 2}],
            "master_seed": master_seed}


class TestPooledExecution:
    @requires_proc
    def test_jobs_share_warm_workers_and_match_direct_runs(self, tmp_path):
        before = set(children_of(os.getpid()))
        server = ReproServer(serve_config(tmp_path, jobs=2))
        workers = set(children_of(os.getpid())) - before
        assert len(workers) == 2  # there before any thread is
        server.start()
        try:
            self._run_jobs(server, workers)
        finally:
            server.stop()
        assert survivors(workers, timeout_s=5.0) == []

    @staticmethod
    def _run_jobs(server, workers):
        from repro.chaos import run_scenario
        from repro.cliutil import dump_json_document
        from repro.exp.runner import run_sweep
        from repro.serve.schema import build_sweep_spec, normalize_job

        def served_report(job):
            _, submitted = request(server, "POST", "/v1/jobs", body=job)
            record = wait_for_run(server, submitted["run_id"])
            assert record["status"] == "done", record.get("error")
            assert record["certified"] is True
            _, report = request(
                server, "GET", f"/v1/runs/{submitted['run_id']}/pack/report.json", raw=True
            )
            assert workers <= set(children_of(os.getpid()))  # still the same two
            return report

        sweeps = [_sweep_job(master_seed) for master_seed in (1, 2, 3)]
        reports = [served_report(job) for job in sweeps]
        assert len(set(reports)) == 3
        for job, report in zip(sweeps, reports):
            direct = run_sweep(build_sweep_spec(normalize_job(job)), jobs=1)
            assert report == dump_json_document(direct.document).encode("utf-8")

        direct_chaos = run_scenario("smoke", seed=11).report.to_json() + "\n"
        assert served_report(CHAOS_SMOKE) == direct_chaos.encode("utf-8")

        # ...and nothing was forked for any of the seven tasks.
        _, health = request(server, "GET", "/healthz", client=None)
        assert health["pool"] == {
            "spawned": 2, "respawned": 0, "tasks": 7, "crashes": 0, "timeouts": 0,
        }


class TestExecutorCache:
    def test_one_cache_spans_jobs_so_the_directory_is_scanned_once(self, server, monkeypatch):
        """A cache per job would restart the prune cadence at "first
        put" and list the whole cache directory on every job."""
        from repro.exp.cache import ResultCache

        scans = []
        prune = ResultCache.prune

        def counted(self, max_bytes=None):
            scans.append(self)
            return prune(self, max_bytes)

        monkeypatch.setattr(ResultCache, "prune", counted)
        for master_seed in (1, 2):
            _, submitted = request(
                server, "POST", "/v1/jobs", body={**TINY_SWEEP, "master_seed": master_seed}
            )
            assert wait_for_run(server, submitted["run_id"])["status"] == "done"
        assert len(scans) == 1
        cache = server.executor.cache
        assert (cache.hits, cache.misses) == (0, 2)  # counts outlive a job too


class TestSigterm:
    @requires_proc
    def test_sigterm_shuts_down_cleanly_and_takes_the_workers_along(self, tmp_path):
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "2",
                "--data-dir", str(tmp_path / "data"), "--operator-secret", SECRET,
                "--client", "alice=tok-alice", "--rate", "1000", "--burst", "1000",
            ],
            env=subprocess_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            url = server.stdout.readline().split("listening on ", 1)[1].strip()

            def call(path, body=None):
                req = urllib.request.Request(
                    url + path,
                    data=None if body is None else json.dumps(body).encode("utf-8"),
                    headers={"Authorization": "Bearer alice:tok-alice"},
                )
                with urllib.request.urlopen(req, timeout=30) as response:
                    return json.loads(response.read())

            run_id = call("/v1/jobs", body=_sweep_job(4))["run_id"]
            deadline = time.monotonic() + 120.0
            while call(f"/v1/runs/{run_id}")["status"] != "done":
                assert time.monotonic() < deadline
                time.sleep(0.05)
            workers = children_of(server.pid)
            assert len(workers) == 2

            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10) == 0
            assert survivors(workers, timeout_s=5.0) == []
        finally:
            server.kill()
            server.wait(timeout=10)
            server.stdout.close()
