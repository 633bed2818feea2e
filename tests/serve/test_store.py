"""RunStore: dedup by identity, atomic claims, lifecycle transitions."""

import threading

import pytest

from repro.serve.store import DONE, FAILED, QUEUED, RUNNING, RunStore

SPEC = {"kind": "chaos", "scenario": "smoke", "seed": 11, "schema": "repro-job/1"}


@pytest.fixture
def store(tmp_path):
    store = RunStore(tmp_path / "runs.sqlite3")
    yield store
    store.close()


def test_fresh_store_journals_to_a_wal_without_a_sync_per_commit(store):
    # Three commits per job are on the client's critical path.
    with store._lock:
        assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert store._conn.execute("PRAGMA synchronous").fetchone()[0] == 1  # NORMAL
    store.submit("r1", SPEC, "v1")
    assert store.path.with_name(store.path.name + "-wal").exists()


class TestSubmitDedup:
    def test_first_submission_creates(self, store):
        assert store.submit("r1", SPEC, "v1", submitted_by="alice") is True
        record = store.get("r1")
        assert record["status"] == QUEUED
        assert record["spec"] == SPEC
        assert record["submitted_by"] == "alice"
        assert record["executions"] == 0

    def test_resubmission_is_a_noop_in_any_status(self, store):
        store.submit("r1", SPEC, "v1", submitted_by="alice")
        assert store.submit("r1", SPEC, "v1", submitted_by="bob") is False
        # First submitter is kept -- the run already existed.
        assert store.get("r1")["submitted_by"] == "alice"
        store.claim_next()
        assert store.submit("r1", SPEC, "v1") is False
        store.mark_done("r1", "/packs/r1", certified=True)
        assert store.submit("r1", SPEC, "v1") is False
        assert store.get("r1")["status"] == DONE

    def test_concurrent_submissions_create_exactly_once(self, tmp_path):
        store = RunStore(tmp_path / "c.sqlite3")
        results = []
        barrier = threading.Barrier(8)

        def submit():
            barrier.wait()
            results.append(store.submit("r1", SPEC, "v1"))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(results) == 1
        assert store.counts()[QUEUED] == 1
        store.close()


class TestClaims:
    def test_claim_moves_oldest_to_running(self, store):
        store.submit("r1", SPEC, "v1")
        store.submit("r2", SPEC, "v1")
        claimed = store.claim_next()
        assert claimed["run_id"] == "r1"
        assert claimed["status"] == RUNNING
        assert claimed["executions"] == 1
        assert claimed["started_at"] is not None

    def test_each_run_claimed_exactly_once(self, store):
        store.submit("r1", SPEC, "v1")
        assert store.claim_next()["run_id"] == "r1"
        assert store.claim_next() is None

    def test_concurrent_claims_yield_one_winner(self, tmp_path):
        store = RunStore(tmp_path / "c.sqlite3")
        store.submit("r1", SPEC, "v1")
        claims = []
        barrier = threading.Barrier(8)

        def claim():
            barrier.wait()
            claims.append(store.claim_next())

        threads = [threading.Thread(target=claim) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        winners = [c for c in claims if c is not None]
        assert len(winners) == 1
        assert store.get("r1")["executions"] == 1
        store.close()


class TestLifecycle:
    def test_mark_done_records_pack_and_verdict(self, store):
        store.submit("r1", SPEC, "v1")
        store.claim_next()
        store.mark_done("r1", "/packs/r1", certified=False)
        record = store.get("r1")
        assert record["status"] == DONE
        assert record["pack_dir"] == "/packs/r1"
        assert record["certified"] is False
        assert record["finished_at"] is not None

    def test_mark_failed_records_error(self, store):
        store.submit("r1", SPEC, "v1")
        store.claim_next()
        store.mark_failed("r1", "Traceback: boom")
        record = store.get("r1")
        assert record["status"] == FAILED
        assert "boom" in record["error"]
        assert record["certified"] is None

    def test_requeue_interrupted_recovers_running_runs(self, store):
        store.submit("r1", SPEC, "v1")
        store.submit("r2", SPEC, "v1")
        store.claim_next()
        assert store.requeue_interrupted() == 1
        assert store.get("r1")["status"] == QUEUED
        # The recovered run keeps its attempt count: executions counts
        # every claim, which is what surfaces crash loops.
        assert store.get("r1")["executions"] == 1


class TestQueries:
    def test_list_runs_filters_by_status(self, store):
        store.submit("r1", SPEC, "v1")
        store.submit("r2", SPEC, "v1")
        store.claim_next()
        assert [r["run_id"] for r in store.list_runs()] == ["r1", "r2"]
        assert [r["run_id"] for r in store.list_runs(QUEUED)] == ["r2"]
        assert [r["run_id"] for r in store.list_runs(RUNNING)] == ["r1"]

    def test_list_runs_rejects_unknown_status(self, store):
        with pytest.raises(ValueError, match="unknown status"):
            store.list_runs("exploded")

    def test_counts(self, store):
        store.submit("r1", SPEC, "v1")
        store.submit("r2", SPEC, "v1")
        store.claim_next()
        store.mark_failed("r1", "x")
        counts = store.counts()
        assert counts == {QUEUED: 1, RUNNING: 0, DONE: 0, FAILED: 1}

    def test_get_unknown_run_is_none(self, store):
        assert store.get("ghost") is None

    def test_store_survives_reopen(self, tmp_path):
        store = RunStore(tmp_path / "runs.sqlite3")
        store.submit("r1", SPEC, "v1")
        store.close()
        reopened = RunStore(tmp_path / "runs.sqlite3")
        assert reopened.get("r1")["spec"] == SPEC
        reopened.close()
