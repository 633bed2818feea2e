"""The ``serve_jobs`` workload's client side: the control plane as its
users reach it.

Closed loop: the client waits for its evidence pack before submitting
again (a caller that waits for a reply).  A job is timed from POST to
pack downloaded *and verified offline*; any non-2xx reply, a run that
ends ``failed``, or a pack :func:`verify_pack` rejects makes it a failed
job.

The same client drives the server as a subprocess (``python -m repro
serve``, end-to-end runs) and in-process (traced run), so both measure
the same traffic.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import subprocess
import sys
import time
import urllib.parse
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

# Called through the module so a tracer's wrapper on it is seen.
from repro.serve import evidence

from bench import SRC

SECRET = "bench-operator-secret"
CLIENT_ID = "bench"
CLIENT_TOKEN = "bench-client-token"
POLL_INTERVAL_S = 0.01
JOB_TIMEOUT_S = 60.0
ARTIFACTS = ("report.json", "manifest.json", "certificate.json", "trace.jsonl")


def job_spec(seed: int, index: int) -> Dict[str, object]:
    """A two-point sweep in the CI serve-smoke shape; distinct per index
    so no submission is answered by run dedup or the result cache."""
    return {
        "kind": "sweep",
        "name": f"bench-{index}",
        "grid": [{"n_shards": 1}, {"n_shards": 2}],
        "seeds": 1,
        "master_seed": seed * 1000 + index,
        "warmup_s": 0.05,
        "duration_s": 0.1,
        "rate_per_participant": 100,
        "base": {
            "n_participants": 4, "n_gateways": 2, "n_symbols": 4,
            "subscriptions_per_participant": 2,
        },
    }


@dataclass
class JobOutcome:
    index: int
    ok: bool
    error: str = ""
    run_id: str = ""
    latency_s: float = 0.0  # POST sent -> pack verified
    submit_s: float = 0.0
    fetch_s: float = 0.0
    verify_s: float = 0.0
    queue_wait_s: float = 0.0  # started_at - submitted_at (run record)
    execute_s: float = 0.0  # finished_at - started_at (run record)
    orders: int = 0
    report_digest: str = ""


class JobFailed(Exception):
    pass


class Connection:
    """One client's way to the server.  Each request opens its own TCP
    connection, like the ``curl``/``urllib`` one-shots README documents
    (and CI uses).  A kept-alive connection is *slower* against this
    server -- every reply stalls ~40 ms, because it writes headers and
    body separately and Nagle meets the client's delayed ACK -- and the
    stall would drown the store/executor/pool costs this workload exists
    to expose (see ``bench/README.md``)."""

    def __init__(self, url: str) -> None:
        parsed = urllib.parse.urlparse(url)
        self._address = (parsed.hostname, parsed.port)
        self._headers = {
            "Authorization": f"Bearer {CLIENT_ID}:{CLIENT_TOKEN}",
            "Connection": "close",
        }

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> bytes:
        conn = http.client.HTTPConnection(*self._address, timeout=30.0)
        try:
            conn.request(method, path, body=body, headers=self._headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if not 200 <= response.status < 300:
            raise JobFailed(f"{method} {path} -> {response.status}: {data[:200]!r}")
        return data


def submit(conn: Connection, spec: Dict[str, object]) -> Dict[str, object]:
    return json.loads(conn.request("POST", "/v1/jobs", json.dumps(spec).encode("utf-8")))


def _run_job(conn: Connection, seed: int, index: int, packs: Path, span: dict) -> JobOutcome:
    outcome = JobOutcome(index=index, ok=False)
    started = time.perf_counter()
    outcome.run_id = run_id = str(submit(conn, job_spec(seed, index))["run_id"])
    outcome.submit_s = time.perf_counter() - started
    span["ident"] = run_id
    while True:
        record = json.loads(conn.request("GET", f"/v1/runs/{run_id}"))
        if record["status"] == "done":
            break
        if record["status"] == "failed":
            raise JobFailed(f"run {run_id} failed: {record['error']}")
        if time.perf_counter() - started > JOB_TIMEOUT_S:
            raise JobFailed(f"run {run_id} not done after {JOB_TIMEOUT_S} s")
        time.sleep(POLL_INTERVAL_S)
    outcome.queue_wait_s = record["started_at"] - record["submitted_at"]
    outcome.execute_s = record["finished_at"] - record["started_at"]
    fetch_started = time.perf_counter()
    pack = packs / run_id
    pack.mkdir(parents=True)
    for artifact in ARTIFACTS:
        (pack / artifact).write_bytes(conn.request("GET", f"/v1/runs/{run_id}/pack/{artifact}"))
    outcome.fetch_s = time.perf_counter() - fetch_started
    verify_started = time.perf_counter()
    verification = evidence.verify_pack(pack, secret=SECRET)
    outcome.verify_s = time.perf_counter() - verify_started
    if not verification["ok"] or not verification["certified"]:
        raise JobFailed(f"pack {run_id} rejected: {verification['problems']}")
    outcome.latency_s = time.perf_counter() - started
    report = (pack / "report.json").read_bytes()
    outcome.report_digest = hashlib.sha256(report).hexdigest()[:16]
    outcome.orders = sum(
        int(point["result"]["orders_matched"]) for point in json.loads(report)["points"]
    )
    outcome.ok = True
    return outcome


def closed_loop(
    url: str,
    seed: int,
    indices: Iterator[int],
    stop: Callable[[int], bool],
    packs: Path,
    tracer=None,
) -> List[JobOutcome]:
    """One closed-loop client: submit the next job of ``indices`` only when
    the previous pack is verified, until ``stop(n_started)``.

    One client, because the server executes one job at a time: a second
    client's job only waits in the queue for the first one's (same
    throughput, latency plus one execution), and on a 2-core box its
    fetching and verifying competes with the job's two pool workers.
    """
    conn = Connection(url)
    outcomes: List[JobOutcome] = []
    while not stop(len(outcomes)):
        index = next(indices)
        job_span = tracer.span("client.job") if tracer is not None else nullcontext({})
        try:
            with job_span as span:
                outcome = _run_job(conn, seed, index, packs, span)
        except (JobFailed, OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            outcome = JobOutcome(index=index, ok=False, error=f"{type(exc).__name__}: {exc}")
        outcomes.append(outcome)
    return outcomes


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port and a fresh data dir."""

    def __init__(self, data_dir: Path) -> None:
        spawned = time.perf_counter()
        self._log = open(data_dir / "serve.stderr", "wb")
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--data-dir", str(data_dir / "data"), "--jobs", "2",
                "--rate", "100000", "--burst", "100000",
                "--operator-secret", SECRET, "--client", f"{CLIENT_ID}={CLIENT_TOKEN}",
            ],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            self.url = self._await_listening(data_dir)
            self._await_healthz()
        except BaseException:
            self.stop()
            raise
        #: spawn -> first ``/healthz`` 200
        self.ready_s = time.perf_counter() - spawned

    def _await_listening(self, data_dir: Path) -> str:
        for line in self._proc.stdout:
            marker = "listening on "
            if marker in line:
                return line.split(marker, 1)[1].strip()
        raise RuntimeError(
            "repro serve exited before listening:\n"
            + (data_dir / "serve.stderr").read_text(errors="replace")[-2000:]
        )

    def _await_healthz(self) -> None:
        conn = Connection(self.url)
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                conn.request("GET", "/healthz")
                return
            except (JobFailed, OSError, http.client.HTTPException):
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()
        self._log.close()
