"""``python -m bench``: the repo benchmark's command line.

With ``--workload`` it runs that one workload in this process and ends
with one JSON line (the form the benchmark driver invokes, once per
workload, seed and kind of run).  Without it, it runs the whole suite --
every workload in a fresh child process, end-to-end first, then the
traced run -- prints every metric by name with its unit, and writes a
result file for :mod:`bench.compare`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict, List, Optional

from bench import OUT, ROOT, SRC, load_benchmark

SMOKE_SECONDS = 1.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long one run measures (default: BENCHMARK.json's run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
        help="0 = end-to-end metrics only, 1 = traced per-layer run only (suite default: both)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="quarter-size rounds for one second per workload: a quick self-check, not a measurement",
    )
    parser.add_argument("--out", help="suite mode: where to write the result file")
    return parser


def _format(name: str, unit: str, metric: Dict[str, Optional[float]]) -> str:
    value = metric["value"]
    text = "n/a" if value is None else f"{value:.6g}"
    line = f"  {name:<40} {text:>12} {unit}"
    if "q1" in metric:
        line += f"   [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n={metric['n']}]"
    return line


def _run_one(args, benchmark) -> int:
    from bench.run import Plan, run_workload

    known = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in known:
        print(f"unknown workload {args.workload!r} (known: {', '.join(known)})", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    plan = Plan.smoke() if args.smoke else Plan()
    outcome = run_workload(args.workload, args.seed, args.seconds, trace, plan)
    units = {m["name"]: m["unit"] for m in benchmark["per_layer" if trace else "end_to_end"]}
    kind = "traced run, per-layer" if trace else "end-to-end"
    print(f"{outcome.workload}  seed={outcome.seed}  {kind}  sim_digest={outcome.sim_digest}")
    for name, metric in outcome.metrics.items():
        print(_format(name, units[name], metric))
    if outcome.machine_slowdown is not None:
        print(_format("(machine slowdown vs reference)", "ratio", outcome.machine_slowdown))
    print(f"  failed/attempted {outcome.failed}/{outcome.attempted}")
    for problem in outcome.problems:
        print(f"  PROBLEM: {problem}")
    detail = {
        "workload": outcome.workload, "seed": outcome.seed, "trace": int(trace),
        "sim_digest": outcome.sim_digest, "correct": outcome.correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": outcome.problems, "metrics": outcome.metrics,
        "machine_slowdown": outcome.machine_slowdown,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    # The driver's line: numbers only, so "not applicable" is written as 0
    # here; the detail line above and the result file keep it as null.
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": metric["value"] or 0, "unit": units[name]}
                    for name, metric in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


def _run_suite(args, benchmark) -> int:
    kinds = [0, 1] if args.trace is None else [args.trace]
    result: Dict[str, object] = {
        "schema": "bench-result/1", "seed": args.seed, "smoke": args.smoke, "workloads": {},
    }
    failed: List[str] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        entry: Dict[str, object] = {}
        for kind in kinds:
            command = [
                sys.executable, "-m", "bench", "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(kind),
            ] + (["--smoke"] if args.smoke else [])
            # One fresh child per workload and kind, so peak_rss_mb and
            # the import cost are that run's alone.
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            detail = None
            for line in proc.stdout.splitlines():
                if line.startswith("detail "):
                    detail = json.loads(line[len("detail "):])
                elif not line.startswith("{"):
                    print(line)
            if proc.returncode != 0 or detail is None:
                failed.append(f"{workload} (--trace {kind}, exit code {proc.returncode})")
            if detail is not None:
                entry["per_layer" if kind else "end_to_end"] = detail
        result["workloads"][workload] = entry
    OUT.mkdir(parents=True, exist_ok=True)
    out = args.out or str(OUT / f"result-seed{args.seed}{'-smoke' if args.smoke else ''}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"result file: {out}")
    for name in failed:
        print(f"FAILED: {name}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: the program under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(benchmark["run_seconds"])
    if args.workload is not None:
        return _run_one(args, benchmark)
    return _run_suite(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
