"""``python -m repro serve`` and ``python -m repro verify-pack``.

``serve`` runs the control plane in the foreground; ``verify-pack``
is the offline auditor's half of the contract: given a downloaded
evidence-pack directory (and optionally the operator secret), it
re-checks every artifact hash and the certificate/triage consistency
without any network or server state.
"""

from __future__ import annotations

import argparse
import dataclasses
import signal
import sys
from typing import Dict, List

from repro.cliutil import EXIT_FAILURE, EXIT_OK, add_json_flag, emit_json, usage_error
from repro.exp.cli import POOL_FIELDS
from repro.runspec import config_field, door_parser, flag_values
from repro.serve.api import ReproServer, ServeConfig


def _client_tokens(specs: List[str]) -> Dict[str, str]:
    clients = {}
    for spec in specs:
        name, _, token = spec.partition("=")
        if not name or not token:
            raise ValueError(f"--client expects NAME=TOKEN, got {spec!r}")
        clients[name] = token
    return clients


#: The ``serve`` flags: ``ServeConfig``'s fields, with its defaults and checks.
SERVE_FIELDS = (
    config_field(ServeConfig, "host", "--host"),
    config_field(ServeConfig, "port", "--port",
                 "listen port; 0 = pick an ephemeral port and print it"),
    config_field(ServeConfig, "data_dir", "--data-dir",
                 "run store, result cache, and evidence packs live here", metavar="DIR"),
    config_field(ServeConfig, "clients", "--client",
                 "register an API client credential (repeatable); with none given, a "
                 "single 'operator' client is minted from the operator secret and its "
                 "token printed at startup", metavar="NAME=TOKEN", repeat=True,
                 read=_client_tokens),
    config_field(ServeConfig, "secret", "--operator-secret",
                 "signs evidence-pack certificates (and mints the default client token); "
                 "set a real one outside development", metavar="SECRET"),
    dataclasses.replace(
        POOL_FIELDS[0],
        help="worker processes in the pool that runs every job's tasks, started once "
             "and kept for the server's lifetime; 1 = inline",
    ),
    *POOL_FIELDS[1:],
    config_field(ServeConfig, "rate_per_s", "--rate", "per-client request rate limit, requests/s",
                 metavar="REQ_PER_S"),
    config_field(ServeConfig, "burst", "--burst", "per-client rate-limit burst allowance"),
)


def build_serve_parser() -> argparse.ArgumentParser:
    return door_parser(
        "serve",
        "Run the exchange-as-a-service control plane: an authenticated "
        "HTTP API accepting sweep/chaos/fairness jobs, executing them on "
        "the repro.exp pool, and serving signed evidence packs.",
        SERVE_FIELDS,
        "submit with:  curl -X POST $URL/v1/jobs "
        "-H 'Authorization: Bearer <client>:<token>' -d @job.json\n"
        "see README 'Running the service' for the full quickstart",
    )


def serve_main(argv=None) -> int:
    args = build_serve_parser().parse_args(argv)
    try:
        config = ServeConfig(**flag_values(SERVE_FIELDS, args))
    except ValueError as exc:
        return usage_error(exc)
    server = ReproServer(config)
    host, port = server.address
    print(f"repro serve: listening on http://{host}:{port}", flush=True)
    print(f"repro serve: data dir {args.data_dir}", flush=True)
    if server.recovered_runs:
        print(f"repro serve: requeued {server.recovered_runs} interrupted run(s)", flush=True)
    if not config.clients:
        token = server.clients["operator"]
        print(f"repro serve: default client 'operator' token {token}", flush=True)
    try:
        # kill, CI and process supervisors send SIGTERM: same orderly
        # shutdown as Ctrl-C.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.stop()
    print("repro serve: stopped", file=sys.stderr)
    return EXIT_OK


def build_verify_pack_parser() -> argparse.ArgumentParser:
    parser = door_parser(
        "verify-pack",
        "Verify a downloaded evidence pack offline: artifact hashes vs. the manifest,\n"
        "certificate/triage consistency, and -- given the operator secret -- the\n"
        "certificate signature.",
        (),
    )
    parser.add_argument("pack", metavar="PACK_DIR", help="evidence-pack directory")
    parser.add_argument(
        "--secret", default=None, metavar="SECRET",
        help="operator secret; enables certificate signature verification",
    )
    add_json_flag(parser, "write the verification document as JSON")
    return parser


def verify_pack_main(argv=None) -> int:
    from repro.serve.evidence import verify_pack

    args = build_verify_pack_parser().parse_args(argv)
    verification = verify_pack(args.pack, secret=args.secret)
    if args.json is not None:
        emit_json(verification, args.json)
    else:
        for line in verification["checks"]:
            print(f"  ok: {line}")
        for line in verification["problems"]:
            print(f"FAIL: {line}")
        verdict = "VERIFIED" if verification["ok"] else "VERIFICATION FAILED"
        certified = verification["certified"]
        flavor = (
            " (certified clean)" if certified
            else " (triage: run had violations)" if certified is False and verification["ok"]
            else ""
        )
        print(f"{verdict}: {args.pack}{flavor}")
    return EXIT_OK if verification["ok"] else EXIT_FAILURE
