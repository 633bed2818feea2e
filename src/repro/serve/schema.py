"""The JSON job schema for the serve control plane.

A *job spec* is the one JSON document a client submits.  Every spec is
normalized -- defaults applied, fields validated, unknown keys rejected
-- before anything else happens, so two clients describing the same
experiment in different field orders or with defaults spelled out
produce the *same* canonical spec, the same content-addressed
``run_id``, and therefore share one execution and one evidence pack.

Supported kinds:

``sweep``
    A :class:`repro.exp.spec.SweepSpec` by value: ``grid`` (required,
    list of override dicts), ``seeds`` (int or explicit list),
    ``master_seed``, ``warmup_s``, ``duration_s``,
    ``rate_per_participant``, ``base``, ``name``.  Field meanings are
    exactly ``python -m repro sweep``'s.
``chaos``
    ``scenario`` (required, a name from the :mod:`repro.chaos` library)
    and ``seed``.
``fairness``
    A :func:`repro.fairness.study.build_fairness_spec` study by value:
    ``policies``, ``clocks``, ``scenarios`` (name lists), ``seeds``,
    ``master_seed``, ``n_participants``, ``n_gateways``, ``n_symbols``,
    ``rate_per_participant``, ``warmup_s``, ``duration_s``, ``name``.
    Field meanings are exactly ``python -m repro fairness``'s; the
    evidence pack's ``report.json`` is the frontier document.

The job identity is :func:`job_key`: BLAKE2 over the canonical
normalized spec plus the simulator source-tree hash, reusing
:func:`repro.exp.cache.content_key` -- so a run's identity pins both
*what* was asked and *which build* answered.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.exp.cache import content_key

SCHEMA = "repro-job/1"

JOB_KINDS = ("sweep", "chaos", "fairness")


class JobError(ValueError):
    """A job spec that failed validation (HTTP 400 at the API)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobError(message)


def _as_float(spec: Dict[str, object], key: str, default: float) -> float:
    value = spec.get(key, default)
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and math.isfinite(value), f"{key!r} must be a finite number")
    return float(value)


def _as_int(spec: Dict[str, object], key: str, default: int) -> int:
    value = spec.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{key!r} must be an integer")
    return int(value)


def _check_keys(spec: Dict[str, object], allowed: tuple, kind: str) -> None:
    unknown = sorted(set(spec) - set(allowed) - {"kind", "schema"})
    _require(not unknown, f"unknown field(s) for a {kind} job: {', '.join(unknown)}")


def _normalize_sweep(spec: Dict[str, object]) -> Dict[str, object]:
    _check_keys(
        spec,
        ("name", "grid", "seeds", "master_seed", "warmup_s", "duration_s",
         "rate_per_participant", "base"),
        "sweep",
    )
    grid = spec.get("grid")
    _require(isinstance(grid, list) and grid, "'grid' must be a non-empty list of override dicts")
    for index, point in enumerate(grid):
        _require(isinstance(point, dict), f"grid point {index} must be an object")
    name = spec.get("name", "sweep")
    _require(isinstance(name, str) and name, "'name' must be a non-empty string")
    seeds = spec.get("seeds", 1)
    if isinstance(seeds, list):
        _require(seeds and all(isinstance(s, int) and not isinstance(s, bool) for s in seeds),
                 "'seeds' list must be non-empty integers")
    else:
        _require(isinstance(seeds, int) and not isinstance(seeds, bool) and seeds >= 1,
                 "'seeds' must be an integer >= 1 or an explicit list")
    base = spec.get("base", {})
    _require(isinstance(base, dict), "'base' must be an object")
    rate: Optional[float] = None
    if spec.get("rate_per_participant") is not None:
        rate = _as_float(spec, "rate_per_participant", 0.0)
    normalized: Dict[str, object] = {
        "kind": "sweep",
        "name": name,
        "grid": grid,
        "seeds": seeds,
        "master_seed": _as_int(spec, "master_seed", 0),
        "warmup_s": _as_float(spec, "warmup_s", 0.5),
        "duration_s": _as_float(spec, "duration_s", 1.0),
        "rate_per_participant": rate,
        "base": base,
    }
    # Every override is checked against CloudExConfig's fields and the
    # reserved sweep keys, and every point's config is built -- a bad
    # field name or value is caught here, at submission, not minutes
    # later in a worker.
    try:
        build_sweep_spec(normalized).validate()
    except (TypeError, ValueError) as exc:
        raise JobError(f"invalid sweep spec: {exc}") from None
    return normalized


def _normalize_chaos(spec: Dict[str, object]) -> Dict[str, object]:
    from repro.chaos import available_scenarios

    _check_keys(spec, ("scenario", "seed"), "chaos")
    scenario = spec.get("scenario")
    known = [name for name, _ in available_scenarios()]
    _require(isinstance(scenario, str) and scenario, "'scenario' is required")
    _require(scenario in known,
             f"unknown chaos scenario {scenario!r} (known: {', '.join(known)})")
    return {
        "kind": "chaos",
        "scenario": scenario,
        "seed": _as_int(spec, "seed", 11),
    }


def _as_name_list(spec: Dict[str, object], key: str, default: tuple) -> List[str]:
    value = spec.get(key, list(default))
    _require(
        isinstance(value, list)
        and bool(value)
        and all(isinstance(item, str) and item for item in value),
        f"{key!r} must be a non-empty list of names",
    )
    return list(value)


def _normalize_fairness(spec: Dict[str, object]) -> Dict[str, object]:
    from repro.fairness.base import POLICY_NAMES
    from repro.fairness.study import DEFAULT_CLOCKS, SCENARIOS

    _check_keys(
        spec,
        ("name", "policies", "clocks", "scenarios", "seeds", "master_seed",
         "n_participants", "n_gateways", "n_symbols", "rate_per_participant",
         "warmup_s", "duration_s"),
        "fairness",
    )
    name = spec.get("name", "fairness")
    _require(isinstance(name, str) and bool(name), "'name' must be a non-empty string")
    seeds = spec.get("seeds", 1)
    if isinstance(seeds, list):
        _require(bool(seeds) and all(isinstance(s, int) and not isinstance(s, bool) for s in seeds),
                 "'seeds' list must be non-empty integers")
    else:
        _require(isinstance(seeds, int) and not isinstance(seeds, bool) and seeds >= 1,
                 "'seeds' must be an integer >= 1 or an explicit list")
    normalized: Dict[str, object] = {
        "kind": "fairness",
        "name": name,
        "policies": _as_name_list(spec, "policies", POLICY_NAMES),
        "clocks": _as_name_list(spec, "clocks", DEFAULT_CLOCKS),
        "scenarios": _as_name_list(spec, "scenarios", tuple(SCENARIOS)),
        "seeds": seeds,
        "master_seed": _as_int(spec, "master_seed", 0),
        "n_participants": _as_int(spec, "n_participants", 8),
        "n_gateways": _as_int(spec, "n_gateways", 4),
        "n_symbols": _as_int(spec, "n_symbols", 10),
        "rate_per_participant": _as_float(spec, "rate_per_participant", 300.0),
        "warmup_s": _as_float(spec, "warmup_s", 0.3),
        "duration_s": _as_float(spec, "duration_s", 0.8),
    }
    # Same rule as sweeps: the full study spec is built (and its grid
    # expanded) at submission, so unknown policy/clock/scenario names or
    # invalid configs are a 400, not a worker crash.
    try:
        spec_obj, _ = build_fairness_study(normalized)
        spec_obj.validate()
    except (TypeError, ValueError) as exc:
        raise JobError(f"invalid fairness spec: {exc}") from None
    return normalized


_NORMALIZERS = {
    "sweep": _normalize_sweep,
    "chaos": _normalize_chaos,
    "fairness": _normalize_fairness,
}


def normalize_job(raw: object) -> Dict[str, object]:
    """Validate a submitted document into the canonical job spec.

    Raises :class:`JobError` with a client-presentable message on any
    problem; the result is a plain JSON-able dict with every default
    made explicit.
    """
    _require(isinstance(raw, dict), "job spec must be a JSON object")
    schema = raw.get("schema", SCHEMA)
    _require(schema == SCHEMA, f"unsupported job schema {schema!r} (expected {SCHEMA!r})")
    kind = raw.get("kind")
    _require(kind in JOB_KINDS, f"'kind' must be one of {', '.join(JOB_KINDS)}")
    normalized = _NORMALIZERS[kind](raw)
    normalized["schema"] = SCHEMA
    return normalized


def job_key(spec: Dict[str, object], code_version: Optional[str] = None) -> str:
    """Content-addressed run identity for a *normalized* job spec."""
    return content_key({"job": spec}, code_version)


def build_sweep_spec(spec: Dict[str, object]):
    """Materialize a normalized sweep job as a :class:`SweepSpec`.

    This is the single point where HTTP-submitted sweeps and
    ``python -m repro sweep`` meet: both construct the same SweepSpec,
    so the aggregated document -- and therefore the evidence pack's
    ``report.json`` -- is byte-identical between the two front doors.
    """
    from repro.exp.spec import SweepSpec

    seeds = spec["seeds"]
    return SweepSpec(
        name=spec["name"],
        grid=list(spec["grid"]),
        seeds=list(seeds) if isinstance(seeds, list) else int(seeds),
        master_seed=int(spec["master_seed"]),
        warmup_s=float(spec["warmup_s"]),
        duration_s=float(spec["duration_s"]),
        rate_per_participant=(
            None if spec["rate_per_participant"] is None
            else float(spec["rate_per_participant"])
        ),
        base=dict(spec["base"]),
    )


def build_fairness_study(spec: Dict[str, object]):
    """Materialize a normalized fairness job as ``(SweepSpec, labels)``.

    The single point where HTTP-submitted studies and ``python -m repro
    fairness`` meet (see :func:`build_sweep_spec`), so the frontier
    document in the evidence pack is byte-identical between front doors.
    """
    from repro.fairness.study import build_fairness_spec

    seeds = spec["seeds"]
    return build_fairness_spec(
        policies=list(spec["policies"]),
        clocks=list(spec["clocks"]),
        scenarios=list(spec["scenarios"]),
        seeds=list(seeds) if isinstance(seeds, list) else int(seeds),
        master_seed=int(spec["master_seed"]),
        n_participants=int(spec["n_participants"]),
        n_gateways=int(spec["n_gateways"]),
        n_symbols=int(spec["n_symbols"]),
        rate_per_participant=float(spec["rate_per_participant"]),
        warmup_s=float(spec["warmup_s"]),
        duration_s=float(spec["duration_s"]),
        name=str(spec["name"]),
    )


def describe(spec: Dict[str, object]) -> str:
    """One-line human label for run listings."""
    kind = spec["kind"]
    if kind == "sweep":
        points: List[dict] = spec["grid"]  # type: ignore[assignment]
        seeds = spec["seeds"]
        n_seeds = len(seeds) if isinstance(seeds, list) else seeds
        return f"sweep {spec['name']}: {len(points)} point(s) x {n_seeds} seed(s)"
    if kind == "chaos":
        return f"chaos {spec['scenario']} (seed={spec['seed']})"
    if kind == "fairness":
        seeds = spec["seeds"]
        n_seeds = len(seeds) if isinstance(seeds, list) else seeds
        cells = len(spec["policies"]) * len(spec["clocks"]) * len(spec["scenarios"]) * n_seeds
        return (
            f"fairness {spec['name']}: {'/'.join(spec['policies'])} "
            f"({cells} cell(s))"
        )
    # A record an older build persisted (RunStore keeps them across upgrades).
    return f"{kind} (unknown job kind)"
