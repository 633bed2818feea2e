"""Shared fixtures for the serve control-plane tests."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.api import ReproServer, ServeConfig

SECRET = "s3cret"
CLIENTS = {"alice": "tok-alice", "bob": "tok-bob"}


def serve_config(tmp_path, jobs=1):
    """Ephemeral port, limits high enough that polling loops never trip
    the rate limiter."""
    return ServeConfig(
        host="127.0.0.1",
        port=0,
        data_dir=str(tmp_path / "serve-data"),
        secret=SECRET,
        clients=dict(CLIENTS),
        jobs=jobs,
        rate_per_s=1000.0,
        burst=1000,
    )


@pytest.fixture
def server(tmp_path):
    """A running service executing jobs inline (``jobs=1``)."""
    server = ReproServer(serve_config(tmp_path))
    server.start()
    yield server
    server.stop()


def request(server, method, path, client="alice", body=None, raw=False):
    """One API call; returns (status, parsed-or-raw body)."""
    req = urllib.request.Request(server.url + path, method=method)
    if client is not None:
        req.add_header("Authorization", f"Bearer {client}:{CLIENTS.get(client, client)}")
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, data=data, timeout=30) as response:
            status, payload = response.status, response.read()
    except urllib.error.HTTPError as error:
        status, payload = error.code, error.read()
    if raw:
        return status, payload
    return status, json.loads(payload.decode("utf-8"))


def wait_for_run(server, run_id, timeout_s=120.0):
    """Poll until the run leaves the queue; returns its final record."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, record = request(server, "GET", f"/v1/runs/{run_id}")
        assert status == 200, record
        if record["status"] in ("done", "failed"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"run {run_id} did not finish within {timeout_s}s")
