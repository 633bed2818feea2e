"""The four-policy frontier study CloudEx couldn't run.

Sweeps every selected fairness backend across clock-error regimes and
network-chaos scenarios **under identical derived seeds** (the
:mod:`repro.exp` identity-keyed seeding means cell (policy, clock,
scenario, replicate) sees the same workload arrivals regardless of
which other cells run, in what order, or on how many workers), then
reduces the sweep into a deterministic *frontier document*:
unfairness vs added latency vs CPU-proxy event counts, per policy.

The document is a pure function of the sweep results, so ``--jobs 1``,
``--jobs N``, and cached re-runs emit byte-identical JSON -- the same
property the sweep runner guarantees, preserved through the reduction.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exp.cache import ResultCache
from repro.exp.pool import WorkerPool
from repro.exp.runner import SweepOutcome, run_sweep
from repro.exp.spec import SweepSpec
from repro.fairness.base import POLICY_NAMES
from repro.obs.breakdown import policy_metrics_row

#: Clock-error regimes swept by default: disciplined gateway clocks
#: (the paper's deployment) vs free-running clocks with ms-scale
#: offsets (where timestamp-trusting policies should degrade and DBO,
#: which never reads a synced clock, should not).
DEFAULT_CLOCKS: Tuple[str, ...] = ("huygens", "none")

#: Chaos scenarios as plain config overrides (JSON-able, so they ride
#: in sweep points; FaultSchedule-style chaos is for repro.chaos runs).
#: The latency storm cycles injected gateway->engine delays fast enough
#: (0.25 s phases) that short study cells see several phases -- the
#: sustained cross-gateway asymmetry that actually reorders traffic.
SCENARIOS: Dict[str, Dict[str, object]] = {
    "calm": {},
    "latency_storm": {
        "injected_delay_phases_us": (400.0, 0.0, 200.0),
        "injected_phase_seconds": 0.25,
        "injected_gateway_fraction": 0.5,
    },
    "stragglers": {
        "straggler_gateways": 1,
        "straggler_multiplier": 3.0,
    },
}

#: Frontier metric names (see the reduction below).
_LATENCY_AXES = ("e2e_p50_us", "e2e_p99_us")
_CPU_AXIS = "events_per_order"
_UNFAIRNESS_AXIS = "inbound_unfairness_true"


def build_fairness_spec(
    policies: Sequence[str] = POLICY_NAMES,
    clocks: Sequence[str] = DEFAULT_CLOCKS,
    scenarios: Sequence[str] = tuple(SCENARIOS),
    seeds: Union[int, Sequence[int]] = 1,
    master_seed: int = 0,
    n_participants: int = 8,
    n_gateways: int = 4,
    n_symbols: int = 10,
    rate_per_participant: float = 300.0,
    warmup_s: float = 0.3,
    duration_s: float = 0.8,
    name: str = "fairness",
) -> Tuple[SweepSpec, List[Tuple[str, str, str]]]:
    """The study spec plus one (policy, clock, scenario) label per
    grid point, in the spec's grid order."""
    for policy in policies:
        if policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
    for clock in clocks:
        if clock not in ("huygens", "ntp", "none", "perfect"):
            raise ValueError(f"unknown clock regime {clock!r}")
    for scenario in scenarios:
        if scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {scenario!r}; expected one of {tuple(SCENARIOS)}"
            )
    grid: List[Dict[str, object]] = []
    labels: List[Tuple[str, str, str]] = []
    for policy, clock, scenario in itertools.product(policies, clocks, scenarios):
        point: Dict[str, object] = {"fairness_policy": policy, "clock_sync": clock}
        point.update(SCENARIOS[scenario])
        grid.append(point)
        labels.append((policy, clock, scenario))
    spec = SweepSpec(
        name=name,
        grid=grid,
        seeds=seeds,
        master_seed=master_seed,
        warmup_s=warmup_s,
        duration_s=duration_s,
        rate_per_participant=rate_per_participant,
        base={
            "n_participants": n_participants,
            "n_gateways": n_gateways,
            "n_symbols": n_symbols,
        },
    )
    return spec, labels


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def build_frontier(
    sweep_document: Dict[str, object],
    labels: Sequence[Tuple[str, str, str]],
    seed_labels: Sequence[str],
) -> Dict[str, object]:
    """Reduce a study sweep document into the frontier document.

    Pure arithmetic on the sweep results: cells (one per task, with
    the shared policy metric row), per-policy frontier aggregates, and
    explicit dominance verdicts.  Per-cell ``added_*_us`` columns are
    the latency over the matching ``noop`` cell -- the price each
    policy pays for its fairness, which is the frontier's x-axis.
    """
    points: List[Dict[str, object]] = sweep_document["points"]  # type: ignore[assignment]
    cells: List[Dict[str, object]] = []
    for (policy, clock, scenario), group in zip(
        labels, (points[i : i + len(seed_labels)] for i in range(0, len(points), len(seed_labels)))
    ):
        for replicate, entry in zip(seed_labels, group):
            result = entry["result"]
            cells.append(
                {
                    "policy": policy,
                    "clock_sync": clock,
                    "scenario": scenario,
                    "replicate": replicate,
                    "seed": entry["seed"],
                    "failed": entry["failed"],
                    "metrics": policy_metrics_row(result) if result is not None else None,
                }
            )

    # Added latency vs the noop cell of the same (clock, scenario,
    # replicate) -- defined only when noop is part of the study.
    baseline: Dict[Tuple[str, str, str], Dict[str, float]] = {
        (c["clock_sync"], c["scenario"], c["replicate"]): c["metrics"]
        for c in cells
        if c["policy"] == "noop" and c["metrics"] is not None
    }
    for cell in cells:
        metrics = cell["metrics"]
        base = baseline.get((cell["clock_sync"], cell["scenario"], cell["replicate"]))
        if metrics is None or base is None:
            continue
        for axis in _LATENCY_AXES:
            metrics[f"added_{axis}"] = metrics[axis] - base[axis]

    policies = sorted({c["policy"] for c in cells}, key=list(POLICY_NAMES).index)
    frontier: Dict[str, Dict[str, float]] = {}
    for policy in policies:
        rows = [c["metrics"] for c in cells if c["policy"] == policy and c["metrics"]]
        storm = [
            c["metrics"]
            for c in cells
            if c["policy"] == policy and c["metrics"] and c["scenario"] == "latency_storm"
        ]
        synced_storm = [
            c["metrics"]
            for c in cells
            if c["policy"] == policy
            and c["metrics"]
            and c["scenario"] == "latency_storm"
            and c["clock_sync"] != "none"
        ]
        frontier[policy] = {
            "unfairness_true_mean": _mean([r[_UNFAIRNESS_AXIS] for r in rows]),
            "outbound_unfairness_mean": _mean([r["outbound_unfairness"] for r in rows]),
            "hr_late_ratio_mean": _mean([r["hr_late_ratio"] for r in rows]),
            "e2e_p50_us_mean": _mean([r["e2e_p50_us"] for r in rows]),
            "e2e_p99_us_mean": _mean([r["e2e_p99_us"] for r in rows]),
            "events_per_order_mean": _mean([r[_CPU_AXIS] for r in rows]),
            "storm_unfairness_true_mean": _mean([r[_UNFAIRNESS_AXIS] for r in storm]),
            "synced_storm_unfairness_true_mean": _mean(
                [r[_UNFAIRNESS_AXIS] for r in synced_storm]
            ),
            "cells": float(len(rows)),
            "synced_storm_cells": float(len(synced_storm)),
        }

    dominance: Dict[str, object] = {}
    if "cloudex" in frontier:
        reference = frontier["cloudex"]
        for challenger in ("dbo", "pfo"):
            if challenger not in frontier:
                continue
            axes: List[str] = []
            if frontier[challenger]["e2e_p50_us_mean"] < reference["e2e_p50_us_mean"]:
                axes.append("latency")
            if frontier[challenger]["events_per_order_mean"] < reference["events_per_order_mean"]:
                axes.append("cpu")
            dominance[f"{challenger}_beats_cloudex_on"] = axes
    # noop-worst is judged at matched, *disciplined* clock quality: the
    # fairness policies are only specified under bounded clock error,
    # and with free-running clocks the timestamp-trusting backends
    # (cloudex, pfo) reorder by garbage timestamps and can genuinely be
    # less fair than FIFO -- a separate finding the frontier keeps as
    # ``storm_unfairness_true_mean`` vs its ``synced_`` counterpart.
    axis = (
        "synced_storm_unfairness_true_mean"
        if any(stats["synced_storm_cells"] > 0.0 for stats in frontier.values())
        else "storm_unfairness_true_mean"
    )
    storm_ranked = [(policy, stats[axis]) for policy, stats in frontier.items()]
    if "noop" in frontier and storm_ranked:
        noop_storm = frontier["noop"][axis]
        dominance["noop_worst_unfairness_under_storm"] = all(
            noop_storm >= value for _, value in storm_ranked
        )

    return {
        "study": sweep_document["sweep"],
        "master_seed": sweep_document["master_seed"],
        "code_version": sweep_document["code_version"],
        "cells": cells,
        "frontier": frontier,
        "dominance": dominance,
    }


def run_fairness_study(
    spec: SweepSpec,
    labels: Sequence[Tuple[str, str, str]],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    pool: Optional[WorkerPool] = None,
) -> Tuple[Dict[str, object], SweepOutcome]:
    """Run the study and reduce it: (frontier document, sweep outcome)."""
    outcome = run_sweep(
        spec, jobs=jobs, cache=cache, timeout_s=timeout_s, retries=retries, pool=pool
    )
    frontier = build_frontier(outcome.document, labels, spec.seed_labels())
    return frontier, outcome
