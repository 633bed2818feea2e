"""``python -m repro sweep``: the experiment harness CLI.

Composes a :class:`~repro.exp.spec.SweepSpec` from ``--grid`` axes
(cross product), runs it through the parallel pool, prints the result
table, and optionally writes the deterministic aggregated JSON.

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
import itertools
import json
import sys
from typing import Dict, List, Tuple

from repro.cliutil import EXIT_FAILURE, EXIT_OK, add_json_flag, emit_json, usage_error
from repro.exp.cache import DEFAULT_CACHE_DIR, DEFAULT_MAX_BYTES, ResultCache
from repro.exp.runner import run_sweep, sweep_table
from repro.exp.spec import SweepSpec
from repro.sim.worker import check_jobs


def _parse_value(text: str) -> object:
    """Interpret a CLI value: JSON literal if it parses, else string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_axis(spec: str) -> Tuple[str, List[object]]:
    if "=" not in spec:
        raise ValueError(f"--grid expects field=v1,v2,... got {spec!r}")
    field, _, values = spec.partition("=")
    return field.strip(), [_parse_value(v) for v in values.split(",")]


def _parse_setting(spec: str) -> Tuple[str, object]:
    if "=" not in spec:
        raise ValueError(f"--set expects field=value, got {spec!r}")
    field, _, value = spec.partition("=")
    return field.strip(), _parse_value(value)


def _parse_seed_list(text: str) -> List[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"--seed-list expects integers s1,s2,... got {text!r}") from None


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description=(
            "Run a (config x seed) experiment sweep over a parallel worker "
            "pool with deterministic aggregation and on-disk result caching."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("Examples\n--------\n", 1)[1],
    )
    parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="FIELD=V1,V2,...",
        help="sweep axis (repeatable; axes combine as a cross product)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="base",
        metavar="FIELD=VALUE",
        help="base config override applied to every point (repeatable)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="N",
        help="replicate seeds per point, derived from --master-seed (default 1)",
    )
    parser.add_argument(
        "--seed-list",
        default=None,
        metavar="S1,S2,...",
        help="explicit config seeds used verbatim (overrides --seeds)",
    )
    parser.add_argument("--master-seed", type=int, default=0)
    parser.add_argument("--name", default="sweep", help="label recorded in the JSON")
    parser.add_argument("--warmup", type=float, default=0.5, metavar="SECONDS")
    parser.add_argument("--duration", type=float, default=1.0, metavar="SECONDS")
    parser.add_argument(
        "--rate", type=float, default=None, help="orders/s per participant"
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task timeout (jobs > 1 only)",
    )
    parser.add_argument("--retries", type=int, default=1, help="extra attempts per failed task")
    add_json_flag(parser, "write the aggregated document as JSON")
    parser.add_argument("--no-cache", action="store_true", help="ignore and don't write .repro-cache/")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument(
        "--cache-max-mb",
        type=int,
        default=DEFAULT_MAX_BYTES // (1024 * 1024),
        metavar="MB",
        help="size bound for the result cache; oldest entries are evicted (default 512)",
    )
    parser.add_argument(
        "--columns",
        default="throughput_per_s,submission_p50_us,submission_p99_us",
        help="result-payload keys shown in the printed table",
    )
    return parser


def sweep_main(argv=None) -> int:
    args = build_sweep_parser().parse_args(argv)
    if not args.grid:
        return usage_error("at least one --grid axis is required")

    # Everything the spec can get wrong is found here, before anything
    # runs -- the same checks, and the same messages, as a submitted job.
    try:
        axes = [_parse_axis(spec) for spec in args.grid]
        grid: List[Dict[str, object]] = [
            dict(zip((name for name, _ in axes), combo))
            for combo in itertools.product(*(values for _, values in axes))
        ]
        base = dict(_parse_setting(spec) for spec in args.base)
        seeds = args.seeds if args.seed_list is None else _parse_seed_list(args.seed_list)
        spec = SweepSpec(
            name=args.name,
            grid=grid,
            seeds=seeds,
            master_seed=args.master_seed,
            warmup_s=args.warmup,
            duration_s=args.duration,
            rate_per_participant=args.rate,
            base=base,
        )
        spec.validate()
        check_jobs(args.jobs)
        cache = None if args.no_cache else ResultCache(
            args.cache_dir, max_bytes=args.cache_max_mb * 1024 * 1024
        )
    except (TypeError, ValueError) as exc:
        return usage_error(exc)
    outcome = run_sweep(
        spec,
        jobs=args.jobs,
        cache=cache,
        timeout_s=args.timeout,
        retries=args.retries,
    )

    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    print(sweep_table(outcome.document, columns=columns))
    print(
        f"\ntasks: {outcome.executed} executed, {outcome.from_cache} cached, "
        f"{len(outcome.failures)} failed; jobs={args.jobs}; "
        f"wall {outcome.wall_s:.1f}s",
        file=sys.stderr,
    )
    for key, error in outcome.failures:
        print(f"\nFAILED {key}\n{error}", file=sys.stderr)

    if args.json is not None:
        emit_json(outcome.document, args.json)
        if args.json != "-":
            print(f"wrote {args.json}", file=sys.stderr)
    return EXIT_OK if outcome.ok else EXIT_FAILURE
