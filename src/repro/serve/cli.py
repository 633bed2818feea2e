"""``python -m repro serve`` and ``python -m repro verify-pack``.

``serve`` runs the control plane in the foreground; ``verify-pack``
is the offline auditor's half of the contract: given a downloaded
evidence-pack directory (and optionally the operator secret), it
re-checks every artifact hash and the certificate/triage consistency
without any network or server state.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.cliutil import EXIT_FAILURE, EXIT_OK, add_json_flag, emit_json, usage_error


def build_serve_parser() -> argparse.ArgumentParser:
    from repro.exp.cli import add_worker_flags

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Run the exchange-as-a-service control plane: an authenticated "
            "HTTP API accepting sweep/chaos/fairness jobs, executing them on "
            "the repro.exp pool, and serving signed evidence packs."
        ),
        epilog=(
            "submit with:  curl -X POST $URL/v1/jobs "
            "-H 'Authorization: Bearer <client>:<token>' -d @job.json\n"
            "see README 'Running the service' for the full quickstart"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 = pick an ephemeral port and print it; default 8321)",
    )
    parser.add_argument(
        "--data-dir", default=".repro-serve", metavar="DIR",
        help="run store, result cache, and evidence packs live here (default .repro-serve)",
    )
    parser.add_argument(
        "--client", action="append", default=[], metavar="NAME=TOKEN",
        help=(
            "register an API client credential (repeatable); with none given, "
            "a single 'operator' client is minted from the operator secret "
            "and its token printed at startup"
        ),
    )
    parser.add_argument(
        "--operator-secret", default="repro-dev-secret", metavar="SECRET",
        help=(
            "signs evidence-pack certificates (and mints the default client "
            "token); set a real one outside development"
        ),
    )
    add_worker_flags(
        parser,
        "worker processes in the pool that runs every job's tasks, started "
        "once and kept for the server's lifetime (default 1 = inline)",
    )
    parser.add_argument(
        "--rate", type=float, default=20.0, metavar="REQ_PER_S",
        help="per-client request rate limit (default 20/s)",
    )
    parser.add_argument(
        "--burst", type=int, default=40,
        help="per-client rate-limit burst allowance (default 40)",
    )
    return parser


def serve_main(argv=None) -> int:
    from repro.serve.api import ReproServer, ServeConfig

    args = build_serve_parser().parse_args(argv)
    clients = {}
    for spec in args.client:
        name, sep, token = spec.partition("=")
        if not sep or not name or not token:
            return usage_error(f"--client expects NAME=TOKEN, got {spec!r}")
        clients[name] = token

    config = ServeConfig(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        secret=args.operator_secret,
        clients=clients,
        jobs=args.jobs,
        rate_per_s=args.rate,
        burst=args.burst,
        timeout_s=args.timeout,
        retries=args.retries,
    )
    server = ReproServer(config)
    host, port = server.address
    print(f"repro serve: listening on http://{host}:{port}", flush=True)
    print(f"repro serve: data dir {args.data_dir}", flush=True)
    if server.recovered_runs:
        print(f"repro serve: requeued {server.recovered_runs} interrupted run(s)", flush=True)
    if not clients:
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
    parser = argparse.ArgumentParser(
        prog="python -m repro verify-pack",
        description=(
            "Verify a downloaded evidence pack offline: artifact hashes vs. "
            "the manifest, certificate/triage consistency, and -- given the "
            "operator secret -- the certificate signature."
        ),
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
