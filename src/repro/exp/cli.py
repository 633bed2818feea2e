"""``python -m repro sweep``: the experiment harness CLI.

Compiles its flags into a sweep job (:mod:`repro.runspec`; the
``--grid`` axes combine as a cross product), runs it through the
parallel pool, prints the result table, and optionally writes the
deterministic aggregated JSON.

Examples
--------
Table 1's shard-scaling grid, three replicate seeds, four workers::

    python -m repro sweep --grid n_shards=1,2,4 --seeds 3 --jobs 4 \
        --set n_participants=48 --set n_gateways=16 --set n_symbols=100 \
        --warmup 0.5 --duration 1.0 --json table1.json

The JSON is byte-identical for any ``--jobs`` value; re-running an
unchanged sweep answers entirely from ``.repro-cache/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from repro.cliutil import EXIT_FAILURE, EXIT_OK, add_json_flag, emit_json, usage_error
from repro.exp.cache import DEFAULT_CACHE_DIR, DEFAULT_MAX_BYTES, ResultCache
from repro.exp.runner import sweep_table
from repro.runspec import add_job_flags, comma_list, job_from_args, run_pooled_job
from repro.sim.worker import check_jobs


def add_worker_flags(parser: argparse.ArgumentParser, jobs_help: str) -> None:
    """The worker-pool flags of every pooled subcommand and ``serve``."""
    parser.add_argument("--jobs", type=int, default=1, help=jobs_help)
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task timeout (jobs > 1 only)",
    )
    parser.add_argument("--retries", type=int, default=1, help="extra attempts per failed task")


def add_pool_flags(parser: argparse.ArgumentParser) -> None:
    """The worker-pool and result-cache flags of every pooled subcommand."""
    add_worker_flags(parser, "worker processes (default 1)")
    parser.add_argument("--no-cache", action="store_true", help="ignore and don't write .repro-cache/")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument(
        "--cache-max-mb",
        type=int,
        default=DEFAULT_MAX_BYTES // (1024 * 1024),
        metavar="MB",
        help="size bound for the result cache; oldest entries are evicted (default 512)",
    )


def pool_options(args: argparse.Namespace) -> Dict[str, object]:
    """The ``jobs`` / ``cache`` / ``timeout_s`` / ``retries`` keywords of
    ``run_sweep`` and ``run_fairness_study``, from :func:`add_pool_flags`'
    flags; raises ``ValueError`` on a bad ``--jobs``."""
    check_jobs(args.jobs)
    cache = None if args.no_cache else ResultCache(
        args.cache_dir, max_bytes=args.cache_max_mb * 1024 * 1024
    )
    return {"jobs": args.jobs, "cache": cache, "timeout_s": args.timeout, "retries": args.retries}


def build_job_parser(kind: str, description: str, epilog: str) -> argparse.ArgumentParser:
    """A job subcommand's parser, with the ``kind`` job's flags."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {kind}",
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=epilog,
    )
    add_job_flags(parser, kind)
    return parser


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = build_job_parser(
        "sweep",
        "Run a (config x seed) experiment sweep over a parallel worker "
        "pool with deterministic aggregation and on-disk result caching.",
        __doc__.split("Examples\n--------\n", 1)[1],
    )
    add_pool_flags(parser)
    add_json_flag(parser, "write the aggregated document as JSON")
    parser.add_argument(
        "--columns",
        type=comma_list,
        default="throughput_per_s,submission_p50_us,submission_p99_us",
        help="result-payload keys shown in the printed table",
    )
    return parser


def run_job_main(kind: str, parser: argparse.ArgumentParser, argv, show) -> int:
    """A pooled subcommand: its flags compile to a ``kind`` job, which
    runs on the pool; ``show(document, args)`` prints the tables."""
    args = parser.parse_args(argv)
    # Everything the spec can get wrong is found here, before anything
    # runs -- the same checks, and the same messages, as a submitted job.
    try:
        job = job_from_args(kind, args)
        pool = pool_options(args)
    except (TypeError, ValueError) as exc:
        return usage_error(exc)
    document, outcome = run_pooled_job(job, **pool)
    show(document, args)
    print(
        f"\n{'tasks' if kind == 'sweep' else 'cells'}: {outcome.executed} executed, "
        f"{outcome.from_cache} cached, {len(outcome.failures)} failed; jobs={args.jobs}; "
        f"wall {outcome.wall_s:.1f}s",
        file=sys.stderr,
    )
    for key, error in outcome.failures:
        print(f"\nFAILED {key}\n{error}", file=sys.stderr)

    emit_json(document, args.json)
    if args.json not in (None, "-"):
        print(f"wrote {args.json}", file=sys.stderr)
    return EXIT_OK if outcome.ok else EXIT_FAILURE


def sweep_main(argv=None) -> int:
    def show(document, args) -> None:
        print(sweep_table(document, columns=args.columns))

    return run_job_main("sweep", build_sweep_parser(), argv, show)
