"""Execute a normalized job spec into deterministic run artifacts.

Each job kind reuses the exact runner its CLI twin uses -- that is the
whole point: a sweep submitted over HTTP goes through the same
:func:`repro.exp.runner.run_sweep` (and therefore the same
crash-tolerant :func:`repro.exp.pool.run_parallel` and the same
content-addressed result cache) as ``python -m repro sweep``, and its
``report.json`` serializes through the same canonical formatter
(:func:`repro.cliutil.dump_json_document`), so the two front doors are
byte-identical.  Fairness jobs likewise run through
:func:`repro.fairness.study.run_fairness_study` and pack the same
frontier document ``python -m repro fairness --json`` emits.  Chaos jobs likewise run through
:func:`repro.chaos.scenarios.run_scenario` and serialize exactly what
``python -m repro chaos --json`` prints.

Chaos jobs execute through :func:`run_parallel` too, so a scenario
that crashes or hangs a worker is reported as a failed run instead of
taking the serve process down with it (``jobs=1`` stays inline, the
deterministic baseline).

Sweep, fairness and chaos jobs take the caller's
:class:`~repro.exp.pool.WorkerPool` (the executor keeps one for its
lifetime), so a served job runs on workers that are already warm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cliutil import dump_json_document
from repro.exp.cache import ResultCache
from repro.exp.pool import WorkerPool, run_parallel


@dataclass
class RunArtifacts:
    """What one executed job produced, ready for evidence packing."""

    #: Canonical ``report.json`` bytes (see module docstring).
    report: bytes
    #: ``trace.jsonl`` bytes (empty when the job kind records no traces).
    trace: bytes = b""
    #: Checker verdict: True -> certificate, False -> triage.
    clean: bool = True
    #: Triage payload when not clean.
    violations: List[Dict[str, object]] = field(default_factory=list)


def _chaos_worker(payload: Dict[str, object]) -> Dict[str, object]:
    """Pool worker for a chaos job (module-level: crosses processes)."""
    from repro.chaos import run_scenario

    result = run_scenario(
        payload["scenario"], seed=payload["seed"], tracing=True
    )
    report = result.report
    tracer = result.cluster.tracer
    return {
        # The exact text ``python -m repro chaos --json`` prints; the
        # trailing newline matches print()'s.
        "report_json": report.to_json() + "\n",
        "trace_jsonl": tracer.dumps_jsonl() if tracer is not None else "",
        "ok": report.ok,
        "violations": [finding.to_dict() for finding in report.violations],
    }


def _run_chaos(
    spec: Dict[str, object],
    jobs: int,
    timeout_s: Optional[float],
    retries: int,
    pool: Optional[WorkerPool],
) -> RunArtifacts:
    payload = {"scenario": spec["scenario"], "seed": spec["seed"]}
    (result,) = run_parallel(
        _chaos_worker,
        [payload],
        jobs=jobs,
        timeout_s=timeout_s,
        retries=retries,
        pool=pool,
    )
    if not result.ok:
        raise RuntimeError(f"chaos scenario execution failed:\n{result.error}")
    value = result.value
    return RunArtifacts(
        report=value["report_json"].encode("utf-8"),
        trace=value["trace_jsonl"].encode("utf-8"),
        clean=bool(value["ok"]),
        violations=list(value["violations"]),
    )


def _run_sweep(
    spec: Dict[str, object],
    jobs: int,
    cache: Optional[ResultCache],
    timeout_s: Optional[float],
    retries: int,
    pool: Optional[WorkerPool],
) -> RunArtifacts:
    from repro.exp.runner import run_sweep
    from repro.serve.schema import build_sweep_spec

    outcome = run_sweep(
        build_sweep_spec(spec),
        jobs=jobs,
        cache=cache,
        timeout_s=timeout_s,
        retries=retries,
        pool=pool,
    )
    violations = [
        {"invariant": "task_complete", "task": key, "error": error}
        for key, error in outcome.failures
    ]
    return RunArtifacts(
        report=dump_json_document(outcome.document).encode("utf-8"),
        clean=outcome.ok,
        violations=violations,
    )


def _run_fairness(
    spec: Dict[str, object],
    jobs: int,
    cache: Optional[ResultCache],
    timeout_s: Optional[float],
    retries: int,
    pool: Optional[WorkerPool],
) -> RunArtifacts:
    from repro.fairness.study import run_fairness_study
    from repro.serve.schema import build_fairness_study

    study_spec, labels = build_fairness_study(spec)
    frontier, outcome = run_fairness_study(
        study_spec,
        labels,
        jobs=jobs,
        cache=cache,
        timeout_s=timeout_s,
        retries=retries,
        pool=pool,
    )
    violations = [
        {"invariant": "cell_complete", "task": key, "error": error}
        for key, error in outcome.failures
    ]
    return RunArtifacts(
        report=dump_json_document(frontier).encode("utf-8"),
        clean=outcome.ok,
        violations=violations,
    )


def execute_job(
    spec: Dict[str, object],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    pool: Optional[WorkerPool] = None,
) -> RunArtifacts:
    """Run one normalized job spec to completion.

    Raises on *execution* failure (worker crash, exhausted retries for
    the whole job); checker verdicts -- invariant violations, failed
    sweep points -- are not exceptions, they are the ``clean=False`` /
    ``violations`` outcome that becomes a triage report.
    """
    kind = spec["kind"]
    if kind == "chaos":
        return _run_chaos(spec, jobs, timeout_s, retries, pool)
    if kind == "sweep":
        return _run_sweep(spec, jobs, cache, timeout_s, retries, pool)
    if kind == "fairness":
        return _run_fairness(spec, jobs, cache, timeout_s, retries, pool)
    raise ValueError(f"unknown job kind {kind!r}")
