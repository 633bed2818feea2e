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

from repro.cliutil import EXIT_FAILURE, EXIT_OK, add_json_flag, emit_json, usage_error
from repro.core.config import check_bool
from repro.exp.cache import DEFAULT_CACHE_DIR, DEFAULT_MAX_BYTES, ResultCache
from repro.exp.pool import WorkerPool
from repro.exp.runner import sweep_table
from repro.runspec import (
    FIELDS, Field, comma_list, config_field, door_parser, flag_values, job_from_args,
    run_pooled_job,
)
from repro.serve.api import ServeConfig

#: The worker-pool flags of every pooled subcommand and ``serve``: the
#: pool keywords ``ServeConfig`` declares, with its defaults and checks.
POOL_FIELDS = (
    config_field(ServeConfig, "jobs", "--jobs", "worker processes"),
    config_field(ServeConfig, "timeout_s", "--timeout", "per-task timeout (jobs > 1 only)",
                 metavar="SECONDS"),
    config_field(ServeConfig, "retries", "--retries", "extra attempts per failed task"),
)

#: The result-cache flags of every pooled subcommand; ``ResultCache`` checks them.
CACHE_FIELDS = (
    Field("no_cache", check_bool, False, "--no-cache", "ignore and don't write .repro-cache/"),
    Field("cache_dir", None, DEFAULT_CACHE_DIR, "--cache-dir"),
    Field("cache_max_mb", None, DEFAULT_MAX_BYTES >> 20, "--cache-max-mb",
          "size bound for the result cache; oldest entries are evicted", "MB", type=int),
)


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = door_parser(
        "sweep",
        "Run a (config x seed) experiment sweep over a parallel worker "
        "pool with deterministic aggregation and on-disk result caching.",
        FIELDS["sweep"] + POOL_FIELDS + CACHE_FIELDS,
        __doc__.split("Examples\n--------\n", 1)[1],
    )
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
    runs on the one pool its pool flags open; ``show(document, args)``
    prints the tables."""
    args = parser.parse_args(argv)
    # Everything the spec can get wrong is found here, before anything
    # runs -- the same checks, and the same messages, as a submitted job.
    try:
        job = job_from_args(kind, args)
        policy = flag_values(POOL_FIELDS, args)
        cache = None
        if not args.no_cache:
            cache = ResultCache(args.cache_dir, max_bytes=args.cache_max_mb << 20)
    except (TypeError, ValueError) as exc:
        return usage_error(exc)
    with WorkerPool(**policy) as pool:
        document, outcome = run_pooled_job(job, pool, cache)
    show(document, args)
    print(
        f"\n{'tasks' if kind == 'sweep' else 'cells'}: {outcome.executed} executed, "
        f"{outcome.from_cache} cached, {len(outcome.failures)} failed; jobs={pool.jobs}; "
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
