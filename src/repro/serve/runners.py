"""Execute a normalized job spec into deterministic run artifacts.

Each job kind reuses the exact runner its CLI twin uses -- that is the
whole point: a sweep or fairness job submitted over HTTP goes through
the same :func:`repro.runspec.run_pooled_job` (and therefore the same
crash-tolerant :class:`repro.exp.pool.WorkerPool` and the same
content-addressed result cache) as ``python -m repro sweep`` /
``fairness``, and its ``report.json`` serializes through the same
canonical formatter (:func:`repro.cliutil.dump_json_document`), so the
two front doors are byte-identical.  Chaos jobs likewise run through
:func:`repro.chaos.scenarios.run_scenario` and serialize exactly what
``python -m repro chaos --json`` prints.

Every job runs on the caller's pool, under that pool's timeout and
retry policy: the executor keeps one for its lifetime, so a served job
runs on workers that are already warm, and a chaos scenario that
crashes or hangs a worker is reported as a failed run instead of
taking the serve process down with it (``WorkerPool(1)`` runs inline,
the deterministic baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cliutil import dump_json_document
from repro.exp.cache import ResultCache
from repro.exp.pool import WorkerPool
from repro.runspec import run_pooled_job


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


def _run_chaos(spec: Dict[str, object], pool: WorkerPool) -> RunArtifacts:
    payload = {"scenario": spec["scenario"], "seed": spec["seed"]}
    (result,) = pool.map(_chaos_worker, [payload])
    if not result.ok:
        raise RuntimeError(f"chaos scenario execution failed:\n{result.error}")
    value = result.value
    return RunArtifacts(
        report=value["report_json"].encode("utf-8"),
        trace=value["trace_jsonl"].encode("utf-8"),
        clean=bool(value["ok"]),
        violations=list(value["violations"]),
    )


def execute_job(
    spec: Dict[str, object], pool: WorkerPool, cache: Optional[ResultCache] = None
) -> RunArtifacts:
    """Run one normalized job spec to completion.

    Raises on *execution* failure (worker crash, exhausted retries for
    the whole job); checker verdicts -- invariant violations, failed
    sweep points -- are not exceptions, they are the ``clean=False`` /
    ``violations`` outcome that becomes a triage report.
    """
    kind = spec["kind"]
    if kind == "chaos":
        return _run_chaos(spec, pool)
    if kind not in ("sweep", "fairness"):
        raise ValueError(f"unknown job kind {kind!r}")
    document, outcome = run_pooled_job(spec, pool, cache)
    invariant = "task_complete" if kind == "sweep" else "cell_complete"
    return RunArtifacts(
        report=dump_json_document(document).encode("utf-8"),
        clean=outcome.ok,
        violations=[
            {"invariant": invariant, "task": key, "error": error}
            for key, error in outcome.failures
        ],
    )
