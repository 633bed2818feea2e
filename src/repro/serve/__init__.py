"""Exchange-as-a-service control plane (``repro.serve``).

CloudEx is operated as a hosted research exchange that users submit to
remotely; this package is that face of the reproduction.  It turns the
repo's deterministic runners -- sweeps (:mod:`repro.exp`), chaos
scenarios (:mod:`repro.chaos`), fairness studies
(:mod:`repro.fairness`) -- into a served, queryable, certifiable system:

- :mod:`repro.serve.schema` -- the JSON job schema: validation,
  normalization, and content-addressed job identity (BLAKE2 over the
  canonical spec + source-tree hash, the same keying as
  :mod:`repro.exp.cache`).
- :mod:`repro.serve.store` -- SQLite-backed run store: every submitted
  job becomes a run row with provenance, status, and dedup-by-identity
  (two clients submitting the same spec share one execution).
- :mod:`repro.serve.runners` -- executes a job spec on the existing
  crash-tolerant :mod:`repro.exp.pool` machinery and returns the
  deterministic artifacts.
- :mod:`repro.serve.certificate` -- HMAC-signed certificates for clean
  runs (chaos invariants clean, sweep fully succeeded) and triage
  reports for runs with violations or failures.
- :mod:`repro.serve.evidence` -- evidence packs: ``report.json`` +
  ``trace.jsonl`` + ``manifest.json`` (artifact hashes) +
  ``certificate.json`` *or* ``triage.json``; plus the offline
  verifier behind ``python -m repro verify-pack``.
- :mod:`repro.serve.executor` -- the background worker that drains
  queued runs from the store into evidence packs.
- :mod:`repro.serve.api` -- the authenticated, rate-limited HTTP API
  (stdlib ``ThreadingHTTPServer``; no new runtime dependencies).
- :mod:`repro.serve.cli` -- ``python -m repro serve`` and
  ``python -m repro verify-pack``.

Everything a pack contains is a pure function of (spec, seed, source
tree): ``report.json`` is byte-identical to the same spec run directly
through ``python -m repro sweep``/``chaos``, which is what makes the
packs *evidence* rather than logs.
"""

_LAZY = {
    "JobError": "repro.serve.schema",
    "job_key": "repro.serve.schema",
    "normalize_job": "repro.serve.schema",
    "RunStore": "repro.serve.store",
    "execute_job": "repro.serve.runners",
    "issue_certificate": "repro.serve.certificate",
    "build_triage": "repro.serve.certificate",
    "write_pack": "repro.serve.evidence",
    "verify_pack": "repro.serve.evidence",
    "JobExecutor": "repro.serve.executor",
    "ReproServer": "repro.serve.api",
    "ServeConfig": "repro.serve.api",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
