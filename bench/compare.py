"""Compare two result files written by ``python -m bench``.

    python -m bench.compare PARENT.json CHANGE.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio change/parent (base: the parent's median), and a
verdict against the bound ``BENCHMARK.json`` fixes for that metric:

``within-bound``  the change is no worse and no better than the bound
``worse``         worse than the parent by more than the bound
``better``        better than the parent by more than the bound
``unresolved``    a side's own spread (quartile distance as a share of
                  its median) is wider than the bound, so the pair
                  cannot say either way

Then one line per workload: whether ``sim_digest`` (the simulated
statistics) and every exact count (``*.calls``, ``sim.engine.events``)
are identical, and ``failed/attempted`` on both sides.  Counts are only
compared when both runs attempted the same amount of work; a time-boxed
job stream does not.

Exit code 1 if any row is ``worse``.  A pair is one sample: a gain is
claimed from at least ten alternating pairs (see ``bench/README.md``).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

from bench import load_benchmark

Metric = Dict[str, Optional[float]]


def _spread(metric: Metric) -> float:
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(parent: Metric, change: Metric, better: str, bound: float) -> Tuple[str, Optional[float]]:
    """``(verdict, change/parent)`` for one metric on one workload."""
    a, b = parent.get("value"), change.get("value")
    if a is None or b is None or a == 0:
        return "missing", None
    if max(_spread(parent), _spread(change)) > bound:
        return "unresolved", b / a
    worsening = (b - a) / a if better == "lower" else (a - b) / a
    if worsening > bound:
        return "worse", b / a
    if worsening < -bound:
        return "better", b / a
    return "within-bound", b / a


def _cell(metric: Metric) -> str:
    if metric.get("value") is None:
        return "n/a"
    text = f"{metric['value']:.5g}"
    if "q1" in metric:
        text += f" [{metric['q1']:.5g}, {metric['q3']:.5g}]"
    return text


def _exact_counts(per_layer: Dict[str, object]) -> Dict[str, Optional[float]]:
    return {
        name: metric["value"]
        for name, metric in per_layer["metrics"].items()
        if name.endswith(".calls") or name == "sim.engine.events"
    }


def compare(parent: Dict[str, object], change: Dict[str, object]) -> Tuple[List[str], bool]:
    """``(report lines, any metric worse)``."""
    end_to_end = load_benchmark()["end_to_end"]
    lines = [
        f"{'workload':<18} {'metric':<20} {'parent [q1, q3]':<32} {'change [q1, q3]':<32} "
        f"{'change/parent':>13}  verdict"
    ]
    any_worse = False
    for workload, ours in parent["workloads"].items():
        theirs = change["workloads"].get(workload, {})
        if "end_to_end" in ours and "end_to_end" in theirs:
            a, b = ours["end_to_end"], theirs["end_to_end"]
            for spec in end_to_end:
                pm = a["metrics"].get(spec["name"], {})
                cm = b["metrics"].get(spec["name"], {})
                word, ratio = verdict(pm, cm, spec["better"], spec["bound"])
                any_worse |= word == "worse"
                lines.append(
                    f"{workload:<18} {spec['name']:<20} {_cell(pm):<32} {_cell(cm):<32} "
                    f"{'n/a' if ratio is None else format(ratio, '.4f'):>13}  "
                    f"{word} (bound {spec['bound']:.2f}, {spec['better']} is better)"
                )
            same = "identical" if a["sim_digest"] == b["sim_digest"] else (
                f"DIFFERENT ({a['sim_digest']} vs {b['sim_digest']})"
            )
            lines.append(
                f"{workload:<18} sim_digest {same}; failed/attempted "
                f"{a['failed']}/{a['attempted']} vs {b['failed']}/{b['attempted']}"
            )
        if "per_layer" in ours and "per_layer" in theirs:
            a, b = ours["per_layer"], theirs["per_layer"]
            if a["attempted"] != b["attempted"]:
                counts = "not comparable (the traced runs attempted different amounts of work)"
            else:
                ca, cb = _exact_counts(a), _exact_counts(b)
                moved = sorted(name for name in ca if ca[name] != cb.get(name))
                counts = "identical" if not moved else "DIFFERENT: " + ", ".join(
                    f"{name} {ca[name]} -> {cb.get(name)}" for name in moved
                )
            lines.append(f"{workload:<18} exact counts {counts}")
    return lines, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    lines, any_worse = compare(*documents)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
