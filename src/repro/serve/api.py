"""The authenticated HTTP control plane (stdlib only).

``ThreadingHTTPServer`` + ``BaseHTTPRequestHandler``: no new runtime
dependencies, one thread per connection, and the single background
:class:`~repro.serve.executor.JobExecutor` doing the actual work -- the
API itself only validates, enqueues, and serves files.

Routes (all JSON; ``Authorization: Bearer <client>:<token>`` except
``/healthz``):

==============================================  =======================
``GET  /healthz``                               liveness, queue counts,
                                                worker-pool counters
``POST /v1/jobs``                               submit a job spec;
                                                202 with the
                                                content-addressed
                                                ``run_id`` (``created``
                                                says whether this
                                                submission was the
                                                first -- dedup is by
                                                identity)
``GET  /v1/jobs/<run_id>``                      run status record
``GET  /v1/runs[?status=...]``                  run listing
``GET  /v1/runs/<run_id>``                      run status record
``GET  /v1/runs/<run_id>/pack``                 the pack manifest
``GET  /v1/runs/<run_id>/pack/<artifact>``      one pack artifact
==============================================  =======================

Auth reuses :class:`repro.core.auth.AuthRegistry` -- the same
shared-secret table the simulated gateways consult -- and per-client
request budgets come from :class:`repro.core.auth.RateLimiter`
(HTTP 429 when exhausted).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.core.auth import AuthRegistry, RateLimiter
from repro.exp.cache import code_version_hash
from repro.serve.evidence import MANIFEST
from repro.serve.executor import JobExecutor
from repro.serve.schema import JobError, describe, job_key, normalize_job
from repro.serve.store import RunStore

DEFAULT_DATA_DIR = ".repro-serve"

#: Submission bodies larger than this are rejected outright (413).
MAX_BODY_BYTES = 1 << 20


@dataclass
class ServeConfig:
    """Everything a :class:`ReproServer` needs, in one place."""

    host: str = "127.0.0.1"
    port: int = 8321  # 0 = ephemeral (tests, parallel CI)
    data_dir: str = DEFAULT_DATA_DIR
    #: Operator secret: signs certificates and (when no explicit
    #: clients are given) mints the default client token.
    secret: str = "repro-dev-secret"
    #: client id -> bearer token.  Empty = a single "operator" client
    #: with a token minted from the secret.
    clients: Dict[str, str] = field(default_factory=dict)
    #: Worker processes in the executor's pool (1 = run jobs inline).
    jobs: int = 1
    rate_per_s: float = 20.0
    burst: int = 40
    #: Per-task timeout / retries handed to the pool (jobs > 1).
    timeout_s: Optional[float] = None
    retries: int = 1


class ReproServer:
    """The assembled service: store + executor + HTTP front end."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        data = Path(config.data_dir)
        self.store = RunStore(data / "runs.sqlite3")
        recovered = self.store.requeue_interrupted()
        self.recovered_runs = recovered
        self.auth = AuthRegistry()
        clients = config.clients or {
            "operator": AuthRegistry.mint_token("operator", config.secret)
        }
        for client_id, token in clients.items():
            self.auth.register(client_id, token)
        self.clients = dict(clients)
        self.limiter = RateLimiter(config.rate_per_s, config.burst)
        self.code_version = code_version_hash()
        self.executor = JobExecutor(
            self.store,
            packs_dir=data / "packs",
            secret=config.secret,
            jobs=config.jobs,
            cache_dir=str(data / "cache"),
            timeout_s=config.timeout_s,
            retries=config.retries,
        )
        self._httpd = ThreadingHTTPServer(
            (config.host, config.port), _Handler, bind_and_activate=True
        )
        self._httpd.daemon_threads = True
        self._httpd.repro = self  # type: ignore[attr-defined]
        self._thread = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- resolved even when port was 0."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        import threading

        self.executor.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Foreground mode for the CLI (Ctrl-C to stop)."""
        self.executor.start()
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.executor.shutdown()
        self.store.close()

    # ------------------------------------------------------------------
    # Request-level operations (called from the handler)
    # ------------------------------------------------------------------
    def submit(self, raw: object, client_id: str) -> Tuple[int, Dict[str, object]]:
        try:
            spec = normalize_job(raw)
        except JobError as exc:
            return 400, {"error": str(exc)}
        run_id = job_key(spec, self.code_version)
        created = self.store.submit(run_id, spec, self.code_version, submitted_by=client_id)
        if created:
            self.executor.notify()
        record = self.store.get(run_id)
        status = record["status"] if record is not None else "queued"
        return 202, {
            "run_id": run_id,
            "status": status,
            "created": created,
            "description": describe(spec),
        }

    def run_record(self, run_id: str) -> Optional[Dict[str, object]]:
        record = self.store.get(run_id)
        if record is None:
            return None
        api_record = {
            key: record[key]
            for key in (
                "run_id", "kind", "status", "submitted_by", "submitted_at",
                "started_at", "finished_at", "executions", "error",
                "code_version", "certified", "spec",
            )
        }
        api_record["description"] = describe(record["spec"])
        if record["status"] == "done" and record["pack_dir"]:
            manifest = self._read_manifest(record)
            if manifest is not None:
                api_record["artifacts"] = sorted(manifest["artifacts"]) + [MANIFEST]
        return api_record

    def _pack_path(self, record: Dict[str, object], artifact: str) -> Optional[Path]:
        """Resolve an artifact download, refusing anything not listed."""
        if record.get("status") != "done" or not record.get("pack_dir"):
            return None
        manifest = self._read_manifest(record)
        if manifest is None:
            return None
        if artifact != MANIFEST and artifact not in manifest["artifacts"]:
            return None
        path = Path(record["pack_dir"]) / Path(artifact).name
        return path if path.is_file() else None

    def _read_manifest(self, record: Dict[str, object]) -> Optional[Dict[str, object]]:
        try:
            text = (Path(record["pack_dir"]) / MANIFEST).read_text(encoding="utf-8")
            return json.loads(text)
        except (OSError, ValueError, TypeError):
            return None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # Buffered wfile, flushed by the stdlib once per request: headers and
    # body leave in one write.  Unbuffered (the default) they are two, and
    # on a kept-alive connection Nagle holds the body until the client's
    # delayed ACK of the headers -- ~40 ms per reply.
    wbufsize = -1

    @property
    def ctx(self) -> ReproServer:
        return self.server.repro  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        pass  # the CLI reports submissions/completions; per-request noise off

    def _send_json(self, status: int, document: Dict[str, object]) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self._send_bytes(body, "application/json", status)

    def _send_bytes(self, data: bytes, content_type: str, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _authenticate(self) -> Optional[str]:
        """The authenticated, un-throttled client id, or None (sent)."""
        header = self.headers.get("Authorization", "")
        scheme, _, credential = header.partition(" ")
        client_id, sep, token = credential.partition(":")
        if scheme.lower() != "bearer" or not sep or not self.ctx.auth.verify(client_id, token):
            self._send_json(401, {"error": "missing or invalid bearer credential "
                                           "(expected 'Authorization: Bearer <client>:<token>')"})
            return None
        if not self.ctx.limiter.allow(client_id):
            self._send_json(429, {"error": f"rate limit exceeded for client {client_id!r}"})
            return None
        return client_id

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["healthz"]:
            self._send_json(
                200,
                {
                    "ok": True,
                    "runs": self.ctx.store.counts(),
                    "pool": self.ctx.executor.pool.stats,
                },
            )
            return
        if self._authenticate() is None:
            return
        if len(parts) >= 1 and parts[0] != "v1":
            self._send_json(404, {"error": f"no such route: {self.path}"})
            return
        rest = parts[1:]
        if rest == ["runs"]:
            status = None
            if "?" in self.path and "status=" in self.path.split("?", 1)[1]:
                status = self.path.split("status=", 1)[1].split("&")[0] or None
            try:
                runs = self.ctx.store.list_runs(status)
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(
                200,
                {"runs": [self.ctx.run_record(r["run_id"]) for r in runs]},
            )
            return
        if len(rest) >= 2 and rest[0] in ("runs", "jobs"):
            record = self.ctx.store.get(rest[1])
            if record is None:
                self._send_json(404, {"error": f"unknown run {rest[1]!r}"})
                return
            if len(rest) == 2:
                self._send_json(200, self.ctx.run_record(rest[1]))
                return
            if rest[2] == "pack":
                artifact = rest[3] if len(rest) > 3 else MANIFEST
                path = self.ctx._pack_path(record, artifact)
                if path is None:
                    self._send_json(
                        404,
                        {"error": f"run {rest[1]} has no downloadable artifact "
                                  f"{artifact!r} (status: {record['status']})"},
                    )
                    return
                content_type = (
                    "application/x-ndjson" if artifact.endswith(".jsonl")
                    else "application/json"
                )
                self._send_bytes(path.read_bytes(), content_type)
                return
        self._send_json(404, {"error": f"no such route: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        client_id = self._authenticate()
        if client_id is None:
            return
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts != ["v1", "jobs"]:
            self._send_json(404, {"error": f"no such route: {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # Take (a bounded amount of) the body off the socket first:
            # closing with it unread resets the connection under a client
            # that is still sending, which then never sees this reply.
            unread = min(max(length, 0), 2 * MAX_BODY_BYTES)
            while unread > 0:
                chunk = self.rfile.read(min(unread, 1 << 16))
                if not chunk:
                    break
                unread -= len(chunk)
            self.close_connection = True
            self._send_json(413, {"error": f"body must be 0..{MAX_BODY_BYTES} bytes"})
            return
        try:
            raw = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": f"body is not valid JSON: {exc}"})
            return
        status, document = self.ctx.submit(raw, client_id)
        self._send_json(status, document)
