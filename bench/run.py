"""Run one workload once in this process: the unit the driver invokes.

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` is the separate traced run that yields the per-layer
metrics (:mod:`bench.trace`), including the tracing overhead itself.
Every timing is host time unless its unit says ``sim_``; the end-to-end
ones are put at reference machine speed (:mod:`bench.calibrate`).
"""

from __future__ import annotations

import itertools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from bench import OUT, ROOT, calibrate, load_benchmark, probes, serveclient
from bench.layers import BOUNDARIES, LAYERS
from bench.trace import Region, Tracer
from bench.workloads import SIM_WORKLOADS, Repetition, SimWorkload, digest

SERVE_JOBS = "serve_jobs"
MIN_ROUNDS = 3
WARMUP_JOBS = 4
#: Serve jobs are timed in rounds of this many, a calibration slice between.
JOBS_PER_ROUND = 4
#: Serve jobs are distinct, so a run's digest covers a fixed prefix of them.
DIGEST_JOBS = 16
DEDUP_SAMPLES = 250

Metric = Dict[str, Optional[float]]
T = TypeVar("T")


@dataclass(frozen=True)
class Plan:
    """How big a run is: full size, or ``--smoke`` with rounds a quarter
    the size and fewer set-up samples."""

    scale: float = 1.0
    setup_samples: int = 5

    @classmethod
    def smoke(cls) -> "Plan":
        return cls(scale=0.25, setup_samples=2)


@dataclass
class Outcome:
    workload: str
    seed: int
    attempted: int
    failed: int
    problems: List[str]
    sim_digest: str
    metrics: Dict[str, Metric]
    #: How much slower than the reference machine the timed rounds ran
    #: (end-to-end runs; see :mod:`bench.calibrate`).
    machine_slowdown: Optional[Metric] = None

    @property
    def correct(self) -> bool:
        return not self.problems


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    return float(np.percentile(values, q))


def summarize(samples: Sequence[float], repeated: bool = True) -> Metric:
    """The median of ``samples`` and n.  Quartiles are added only when the
    samples are ``repeated`` measurements of one quantity: then they say
    how steady the figure is."""
    metric: Metric = {"value": statistics.median(samples), "n": len(samples)}
    if repeated and len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        metric.update(q1=q1, q3=q3)
    return metric


def single(value: Optional[float]) -> Metric:
    return {"value": value, "n": 1}


def peak_rss_mb() -> float:
    """This process's high-water mark plus its largest waited-for child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# End-to-end runs (no wrapper installed)
# ----------------------------------------------------------------------
def repeat_for(seconds: float, one_round: Callable[[], T]) -> List[T]:
    """``one_round()`` again and again until ``seconds`` are used up (never
    fewer than :data:`MIN_ROUNDS`); stops when the next round would mostly
    overshoot."""
    rounds: List[T] = []
    started = time.perf_counter()
    while True:
        rounds.append(one_round())
        elapsed = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and elapsed + 0.5 * elapsed / len(rounds) > seconds:
            return rounds


def _setup_samples(
    clock: calibrate.Clock, sample_s: Callable[[int], float], samples: int
) -> List[float]:
    """``sample_s(i)`` times one set-up from the inside; each sample is put
    at reference machine speed like any other timed piece."""
    normalised = []
    for i in range(samples):
        elapsed, _ = clock.timed(lambda: sample_s(i))
        normalised.append(elapsed / clock.slowdowns[-1])
    return normalised


def _sim_setup_sample(name: str, seed: int) -> float:
    """Fresh interpreter start -> imports done and the system built."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", f"import bench.workloads as w; w.setup_probe({name!r}, {seed})"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit code {proc.returncode})")
    return elapsed


def _check_repetitions(reps: Sequence[Repetition]) -> List[str]:
    problems = [problem for rep in reps for problem in rep.problems]
    digests = sorted({rep.sim_digest for rep in reps})
    if len(digests) > 1:
        problems.append(f"sim_digest differs between repetitions of one seed: {digests}")
    return problems


def end_to_end_sim(workload: SimWorkload, seed: int, seconds: float, plan: Plan) -> Outcome:
    """One discarded half-size warm-up, then same-seed repetitions for
    ``seconds``; a job is one repetition: build + run of a new system."""
    workload.repetition(seed, plan.scale * 0.5)
    clock = calibrate.Clock()
    reps = repeat_for(seconds, lambda: workload.repetition(seed, plan.scale, timed=clock.timed))
    machine_slowdown = summarize(clock.slowdowns)
    # Memory is read before the set-up probes run: they are children too.
    rss = peak_rss_mb()
    setup = _setup_samples(
        clock, lambda i: _sim_setup_sample(workload.name, seed), plan.setup_samples
    )
    return Outcome(
        workload=workload.name,
        seed=seed,
        attempted=sum(rep.attempted for rep in reps),
        failed=sum(rep.failed for rep in reps),
        problems=_check_repetitions(reps),
        sim_digest=reps[0].sim_digest,
        machine_slowdown=machine_slowdown,
        metrics={
            "setup_s": summarize(setup),
            "orders_per_wall_s": summarize([rep.orders / rep.run_s for rep in reps]),
            "job_latency_p50_ms": summarize([rep.latency_s * 1e3 for rep in reps]),
            "peak_rss_mb": single(rss),
        },
    )


def _serve_outcome(
    seed: int,
    outcomes: Sequence[serveclient.JobOutcome],
    metrics: Dict[str, Metric],
    machine_slowdown: Optional[Metric] = None,
) -> Outcome:
    failures = [outcome for outcome in outcomes if not outcome.ok]
    done = [outcome for outcome in outcomes if outcome.ok]
    return Outcome(
        workload=SERVE_JOBS,
        seed=seed,
        attempted=len(outcomes),
        failed=len(failures),
        problems=[f"job {o.index}: {o.error}" for o in failures[:5]]
        + ([] if done else ["no job completed"]),
        sim_digest=digest([o.report_digest for o in done[:DIGEST_JOBS]]),
        machine_slowdown=machine_slowdown,
        metrics=metrics,
    )


def end_to_end_serve(seed: int, seconds: float, plan: Plan) -> Outcome:
    """``python -m repro serve`` as a subprocess and closed-loop clients
    submitting distinct jobs for ``seconds``, in rounds of
    :data:`JOBS_PER_ROUND`; set-up is spawn -> first ``/healthz`` 200,
    sampled on fresh servers."""
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="serve-") as tmp:
        root = Path(tmp)

        def server_ready_s(i: int) -> float:
            (root / f"setup-{i}").mkdir()
            extra = serveclient.ServerProcess(root / f"setup-{i}")
            extra.stop()
            return extra.ready_s

        (root / "timed").mkdir()
        server = serveclient.ServerProcess(root / "timed")
        try:
            indices = itertools.count()

            def jobs(count: int, packs: str) -> List[serveclient.JobOutcome]:
                return serveclient.closed_loop(
                    server.url, seed, indices, lambda n: n >= count, root / packs
                )

            jobs(WARMUP_JOBS, "warmup-packs")
            clock = calibrate.Clock()
            rounds = repeat_for(
                seconds, lambda: clock.timed(lambda: jobs(JOBS_PER_ROUND, "packs"))
            )
        finally:
            server.stop()
        slowdowns = list(clock.slowdowns)
        rss = peak_rss_mb()
        setup = _setup_samples(clock, server_ready_s, plan.setup_samples)
    outcomes = [outcome for batch, _ in rounds for outcome in batch]
    metrics = {
        "setup_s": summarize(setup),
        "orders_per_wall_s": summarize(
            [sum(o.orders for o in batch if o.ok) / wall_s for batch, wall_s in rounds]
        ),
        "peak_rss_mb": single(rss),
    }
    latencies_ms = [
        outcome.latency_s / slow * 1e3
        for (batch, _), slow in zip(rounds, slowdowns)
        for outcome in batch
        if outcome.ok
    ]
    if latencies_ms:
        # Distinct jobs: their quartiles describe the jobs, not the estimate.
        metrics["job_latency_p50_ms"] = summarize(latencies_ms, repeated=False)
    return _serve_outcome(seed, outcomes, metrics, summarize(slowdowns))


# ----------------------------------------------------------------------
# Traced runs (per-layer metrics)
# ----------------------------------------------------------------------
def _layer_metrics(region: Region) -> Dict[str, Optional[float]]:
    """``self_share`` / ``calls`` per layer, and what no layer covers."""
    metrics: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        totals = region.layers.get(layer)
        metrics[f"{layer}.self_share"] = totals.self_ns / region.wall_ns if totals else None
        metrics[f"{layer}.calls"] = totals.calls if totals else None
    attributed = sum(totals.self_ns for totals in region.layers.values())
    # Several threads can be inside wrappers at once (serve), so the
    # attributed time may exceed the wall; the residual is floored at 0.
    metrics["trace.residual_share"] = max(0.0, 1.0 - attributed / region.wall_ns)
    return metrics


def _ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _row(region: Region, target: str, field: str) -> Optional[int]:
    totals = region.rows.get(target)
    return getattr(totals, field) if totals is not None else None


def _sim_metrics(traced: Repetition, plain: Repetition) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced repetition; ``plain`` is the same
    repetition untraced, whose wall the host-time figures are scaled to."""
    region, stats, orders = traced.region, traced.stats, traced.orders
    metrics = _layer_metrics(region)
    events = stats["events"]
    matching_share = metrics["core.matching.self_share"]
    metrics.update(
        {
            "trace.overhead_ratio": traced.run_s / plain.run_s,
            "sim.engine.events": events,
            "sim.engine.events_per_order": _ratio(events, orders),
            "sim.engine.wall_ns_per_event": _ratio(plain.run_s * 1e9, events),
            "sim.network.messages_per_order": _ratio(
                _row(region, "repro.sim.network:Link.prepare", "calls"), orders
            ),
            "sim.latency.samples_per_order": _ratio(metrics["sim.latency.calls"], orders),
            "core.ros.dup_ratio": stats.get("dup_ratio"),
            "core.sequencer.queue_wait_sim_us": stats.get("queue_wait_sim_us"),
            "core.holdrelease.hold_sim_us": stats.get("hold_sim_us"),
            "core.holdrelease.late_ratio": stats.get("late_ratio"),
            "core.matching.ns_per_order": _ratio(
                None if matching_share is None else matching_share * plain.run_s * 1e9, orders
            ),
            "core.matching.trades_per_order": _ratio(stats["trades"], orders),
            "core.shardrun.build_orders_share": _ratio(
                _row(region, "repro.core.shardrun:ShardProgram._build_orders", "self_ns"),
                region.wall_ns,
            ),
            "core.shardrun.orders_per_window": _ratio(orders, stats.get("shard_windows")),
        }
    )
    return metrics


def _write_spans(workload: str, spans: Sequence[dict]) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace-{workload}.jsonl", "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")


def per_layer_sim(workload: SimWorkload, seed: int, plan: Plan) -> Outcome:
    """The same repetition without and with the boundary wrappers."""
    plain = workload.repetition(seed, plan.scale)
    tracer = Tracer(BOUNDARIES)
    with tracer, tracer.span("repetition"):
        traced = workload.repetition(seed, plan.scale, tracer)
    metrics = _sim_metrics(traced, plain)
    runner = traced.region.layers.get("sim.parallel")
    if runner is not None and runner.calls:
        # The barrier's fixed cost, on the workload that goes through it.
        metrics["sim.parallel.window_roundtrip_us"] = probes.window_roundtrip_us(
            max(100, int(2000 * plan.scale))
        )
    _write_spans(workload.name, tracer.spans)
    return Outcome(
        workload=workload.name,
        seed=seed,
        attempted=traced.attempted,
        failed=traced.failed,
        # Tracing must not perturb the simulation: one digest for both.
        problems=_check_repetitions([plain, traced]),
        sim_digest=traced.sim_digest,
        metrics={name: single(value) for name, value in metrics.items()},
    )


def _p50_ms(samples_s: Sequence[float]) -> Optional[float]:
    return percentile(samples_s, 50.0) * 1e3 if samples_s else None


def _dedup_submit_samples(
    url: str, seed: int, done: Sequence[serveclient.JobOutcome], samples: int
) -> List[float]:
    """Re-POST an already-done spec: the store answers by identity."""
    if not done:
        return []
    spec = serveclient.job_spec(seed, done[0].index)
    elapsed = []
    conn = serveclient.Connection(url)
    for _ in range(samples):
        started = time.perf_counter()
        reply = serveclient.submit(conn, spec)
        elapsed.append(time.perf_counter() - started)
        if reply["created"]:
            raise RuntimeError("re-POST of a done spec created a new run")
    return elapsed


def per_layer_serve(seed: int, seconds: float, plan: Plan) -> Outcome:
    """An in-process ``ReproServer`` under the same closed-loop traffic,
    untraced for a third of ``seconds`` and then traced for the rest."""
    from repro.serve.api import ReproServer, ServeConfig

    OUT.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(BOUNDARIES)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="serve-traced-") as tmp:
        root = Path(tmp)
        server = ReproServer(
            ServeConfig(
                port=0, data_dir=str(root / "data"), secret=serveclient.SECRET,
                clients={serveclient.CLIENT_ID: serveclient.CLIENT_TOKEN},
                jobs=2, rate_per_s=100000.0, burst=100000,
            )
        )
        server.start()
        try:
            indices = itertools.count()

            def stream(duration_s: float, packs: str, tracer: Optional[Tracer]):
                deadline = time.perf_counter() + duration_s
                with Region(tracer) as region:
                    outcomes = serveclient.closed_loop(
                        server.url, seed, indices,
                        lambda n: time.perf_counter() >= deadline, root / packs, tracer,
                    )
                return region, outcomes

            serveclient.closed_loop(
                server.url, seed, indices, lambda n: n >= WARMUP_JOBS, root / "warmup-packs"
            )
            plain_region, plain_outcomes = stream(seconds / 3, "plain-packs", None)
            # Every serve boundary is looked up per call, so the wrappers
            # can go onto the running server.
            with tracer:
                region, outcomes = stream(seconds * 2 / 3, "packs", tracer)
            done = [outcome for outcome in outcomes if outcome.ok]
            dedup_s = _dedup_submit_samples(
                server.url, seed, done, max(10, int(DEDUP_SAMPLES * plan.scale))
            )
        finally:
            server.stop()
        cache = probes.cache_get_put_us(root / "cache-probe", max(30, int(300 * plan.scale)))
    _write_spans(SERVE_JOBS, tracer.spans)

    metrics = _layer_metrics(region)
    plain_done = [outcome for outcome in plain_outcomes if outcome.ok]
    gets = _row(region, "repro.exp.cache:ResultCache.get", "calls")
    puts = _row(region, "repro.exp.cache:ResultCache.put", "calls")
    metrics.update(
        {
            # Jobs per wall second untraced vs traced, same server, same traffic.
            "trace.overhead_ratio": _ratio(
                len(plain_done) / plain_region.wall_s, len(done) / region.wall_s
            ),
            "exp.pool.task_roundtrip_ms": probes.pool_task_roundtrip_ms(
                max(40, int(200 * plan.scale))
            ),
            "exp.cache.get_us": cache["get_us"],
            "exp.cache.put_us": cache["put_us"],
            "exp.cache.hit_ratio": (
                None if gets is None or puts is None else _ratio(gets - puts, gets)
            ),
            # What the clients saw on the untraced stretch (host time, raw).
            "serve.client.jobs_per_s": len(plain_done) / plain_region.wall_s,
            "serve.client.job_latency_p90_ms": (
                percentile([o.latency_s for o in plain_done], 90.0) * 1e3 if plain_done else None
            ),
            "serve.api.submit_ms_p50": _p50_ms([o.submit_s for o in done]),
            "serve.api.dedup_submit_ms_p50": _p50_ms(dedup_s),
            "serve.api.pack_fetch_ms_p50": _p50_ms([o.fetch_s for o in done]),
            "serve.executor.queue_wait_ms_p50": _p50_ms([o.queue_wait_s for o in done]),
            "serve.runners.execute_ms_p50": _p50_ms([o.execute_s for o in done]),
            "serve.evidence.write_ms_p50": _p50_ms(
                [
                    (span["end_ns"] - span["start_ns"]) / 1e9
                    for span in tracer.spans_named("write_pack")
                ]
            ),
            "serve.evidence.verify_ms_p50": _p50_ms([o.verify_s for o in done]),
        }
    )
    return _serve_outcome(
        seed, list(plain_outcomes) + list(outcomes),
        {name: single(value) for name, value in metrics.items()},
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, plan: Plan) -> Outcome:
    """Run workload ``name`` once; every metric BENCHMARK.json lists for
    this kind of run is present in the outcome (``None`` = not applicable
    to this workload, or its boundary no longer resolves)."""
    benchmark = load_benchmark()
    if name == SERVE_JOBS:
        outcome = (per_layer_serve if trace else end_to_end_serve)(seed, seconds, plan)
    else:
        workload = SIM_WORKLOADS[name]
        outcome = (
            per_layer_sim(workload, seed, plan) if trace
            else end_to_end_sim(workload, seed, seconds, plan)
        )
    listed = [m["name"] for m in benchmark["per_layer" if trace else "end_to_end"]]
    unlisted = sorted(set(outcome.metrics) - set(listed))
    if unlisted:
        raise RuntimeError(f"metrics measured but not in BENCHMARK.json: {unlisted}")
    outcome.metrics = {metric: outcome.metrics.get(metric, single(None)) for metric in listed}
    return outcome
