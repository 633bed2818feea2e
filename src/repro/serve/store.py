"""SQLite-backed run store with content-addressed identity.

One row per *run*, keyed by the job's content hash (spec + source
tree, :func:`repro.serve.schema.job_key`).  Identity-as-key is what
gives the control plane its dedup semantics for free: submitting a
spec that is already queued, running, or done never creates a second
row -- :meth:`RunStore.submit` is an ``INSERT OR IGNORE`` and reports
whether this submission created the run.  Status transitions are
single UPDATE statements guarded on the previous status, so exactly
one executor thread can claim a queued run no matter how many are
polling.

The store is operational state (wall-clock timestamps, error text,
attempt counts); nothing in it feeds the deterministic evidence-pack
artifacts.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Run lifecycle: queued -> running -> done | failed.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

STATUSES = (QUEUED, RUNNING, DONE, FAILED)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id       TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    spec         TEXT NOT NULL,
    code_version TEXT NOT NULL,
    status       TEXT NOT NULL,
    submitted_by TEXT NOT NULL DEFAULT '',
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    executions   INTEGER NOT NULL DEFAULT 0,
    error        TEXT,
    pack_dir     TEXT,
    certified    INTEGER
);
CREATE INDEX IF NOT EXISTS runs_status ON runs (status, submitted_at);
"""


class RunStore:
    """Thread-safe run history over one SQLite file."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One shared connection behind a lock: the serve API handles a
        # handful of requests per second, not a database workload, and
        # a single writer sidesteps SQLITE_BUSY entirely.
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._lock = threading.Lock()
        with self._lock:
            # Three commits per job sit on the client's critical path and
            # a rollback journal pays fsyncs on each.  WAL appends, and
            # NORMAL syncs only at checkpoints: a killed *process* loses
            # nothing committed; a power cut may lose the last commits
            # but cannot corrupt the file -- enough for operational state
            # that requeue_interrupted() repairs on the next start.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    # ------------------------------------------------------------------
    # Submission and claims
    # ------------------------------------------------------------------
    def submit(
        self,
        run_id: str,
        spec: Dict[str, object],
        code_version: str,
        submitted_by: str = "",
    ) -> bool:
        """Record a submission; True iff this call created the run.

        A resubmission of an existing run (any status) changes nothing
        -- the content-addressed key *is* the dedup.
        """
        with self._lock:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO runs "
                "(run_id, kind, spec, code_version, status, submitted_by, submitted_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    spec["kind"],
                    json.dumps(spec, sort_keys=True, separators=(",", ":")),
                    code_version,
                    QUEUED,
                    submitted_by,
                    time.time(),
                ),
            )
            self._conn.commit()
            return cursor.rowcount == 1

    def claim_next(self) -> Optional[Dict[str, object]]:
        """Atomically move the oldest queued run to ``running``.

        Returns the claimed record, or None when the queue is empty.
        Safe to call from many executor threads: the guarded UPDATE
        means each queued run is claimed exactly once.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT run_id FROM runs WHERE status = ? "
                "ORDER BY submitted_at, run_id LIMIT 1",
                (QUEUED,),
            ).fetchone()
            if row is None:
                return None
            cursor = self._conn.execute(
                "UPDATE runs SET status = ?, started_at = ?, "
                "executions = executions + 1 "
                "WHERE run_id = ? AND status = ?",
                (RUNNING, time.time(), row["run_id"], QUEUED),
            )
            self._conn.commit()
            if cursor.rowcount != 1:
                return None  # lost a race with another claimer
        return self.get(row["run_id"])

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def mark_done(self, run_id: str, pack_dir: str, certified: bool) -> None:
        with self._lock:
            self._conn.execute(
                "UPDATE runs SET status = ?, finished_at = ?, pack_dir = ?, "
                "certified = ?, error = NULL WHERE run_id = ?",
                (DONE, time.time(), pack_dir, int(certified), run_id),
            )
            self._conn.commit()

    def mark_failed(self, run_id: str, error: str) -> None:
        with self._lock:
            self._conn.execute(
                "UPDATE runs SET status = ?, finished_at = ?, error = ? "
                "WHERE run_id = ?",
                (FAILED, time.time(), error, run_id),
            )
            self._conn.commit()

    def requeue_interrupted(self) -> int:
        """Startup recovery: runs left ``running`` by a dead server go
        back to ``queued``.  Returns how many were recovered."""
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE runs SET status = ? WHERE status = ?", (QUEUED, RUNNING)
            )
            self._conn.commit()
            return cursor.rowcount

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, run_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        return self._record(row) if row is not None else None

    def list_runs(self, status: Optional[str] = None) -> List[Dict[str, object]]:
        query = "SELECT * FROM runs"
        args: tuple = ()
        if status is not None:
            if status not in STATUSES:
                raise ValueError(f"unknown status {status!r} (known: {STATUSES})")
            query += " WHERE status = ?"
            args = (status,)
        query += " ORDER BY submitted_at, run_id"
        with self._lock:
            rows = self._conn.execute(query, args).fetchall()
        return [self._record(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM runs GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in STATUSES}
        counts.update({row["status"]: row["n"] for row in rows})
        return counts

    @staticmethod
    def _record(row: sqlite3.Row) -> Dict[str, object]:
        record = dict(row)
        record["spec"] = json.loads(record["spec"])
        record["certified"] = (
            None if record["certified"] is None else bool(record["certified"])
        )
        return record

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __repr__(self) -> str:
        return f"RunStore({str(self.path)!r})"
