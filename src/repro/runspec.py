"""The run spec: every sweep, fairness and chaos field, declared once.

A *job spec* is the one JSON document that describes a run: a served
client submits one, and ``python -m repro sweep`` / ``fairness`` /
``chaos`` compile their flags into one.  Every spec is normalized --
defaults applied, fields validated, unknown keys rejected -- before
anything else happens, so two clients describing the same experiment
in different field orders or with defaults spelled out produce the
*same* canonical spec, the same content-addressed ``run_id``, and
therefore share one execution and one evidence pack; and a bad value
gets one message at every door (exit 2 at a CLI, HTTP 400 at the API).
Each field is one :class:`Field` of :data:`FIELDS` (key, check,
default, flag), which :func:`normalize_job`, :func:`add_job_flags` and
:func:`job_from_args` all read.

The kinds are ``sweep`` (a :class:`repro.exp.spec.SweepSpec` by
value), ``chaos`` (a :mod:`repro.chaos` scenario and seed) and
``fairness`` (a :func:`repro.fairness.study.build_fairness_spec` study
by value, whose evidence pack's ``report.json`` is the frontier).

The job identity is :func:`job_key`: BLAKE2 over the canonical
normalized spec plus the simulator source-tree hash, reusing
:func:`repro.exp.cache.content_key` -- so a run's identity pins both
*what* was asked and *which build* answered.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import (
    CLOCK_SYNC_MODES, Check, check_finite, check_number, check_seed, integer, is_integer,
    optional,
)
from repro.exp.cache import content_key
from repro.exp.runner import SweepOutcome, run_sweep
from repro.exp.spec import SweepSpec
from repro.fairness.base import POLICY_NAMES
from repro.fairness.study import DEFAULT_CLOCKS, SCENARIOS, build_fairness_spec, run_fairness_study

SCHEMA = "repro-job/1"


class JobError(ValueError):
    """A job spec that failed validation (exit 2 at a CLI, HTTP 400 at the API)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobError(message)


# ----------------------------------------------------------------------
# Field checks: a repro.core.config ``Check`` (``check(key, value)``
# accepts or raises; a ValueError becomes the JobError, see
# normalize_job).
# ----------------------------------------------------------------------
_count = integer(1)
# The rate's range is the spec's check (SweepSpec.validate), the same
# one that covers a rate set on a single grid point.
_rate = optional(check_number)


def _name(key: str, value: object) -> None:
    _require(isinstance(value, str) and bool(value), f"{key!r} must be a non-empty string")


def _names(key: str, value: object) -> None:
    _require(
        isinstance(value, list) and bool(value)
        and all(isinstance(item, str) and item for item in value),
        f"{key!r} must be a non-empty list of names",
    )


def _seeds(key: str, value: object) -> None:
    # ``seeds >= 1`` and MAX_TASKS are the spec's checks (SweepSpec.expand).
    if isinstance(value, list):
        _require(bool(value) and all(map(is_integer, value)),
                 f"{key!r} list must be non-empty integers")
    else:
        _require(is_integer(value), f"{key!r} must be an integer >= 1 or an explicit list")


def _object(key: str, value: object) -> None:
    _require(isinstance(value, dict), f"{key!r} must be an object")


def _grid(key: str, value: object) -> None:
    _require(isinstance(value, list) and bool(value),
             f"{key!r} must be a non-empty list of override dicts")
    for index, point in enumerate(value):
        _require(isinstance(point, dict), f"grid point {index} must be an object")


def _scenario(key: str, value: object) -> None:
    from repro.chaos import available_scenarios

    _require(isinstance(value, str) and bool(value), f"{key!r} is required")
    known = [name for name, _ in available_scenarios()]
    _require(value in known, f"unknown chaos scenario {value!r} (known: {', '.join(known)})")


# ----------------------------------------------------------------------
# Flag readers: a flag's parsed value -> the job value (ValueError = usage error).
# ----------------------------------------------------------------------
def comma_list(text: str) -> List[str]:
    """``"a, b,,c"`` -> ``["a", "b", "c"]``."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _literal(text: str) -> object:
    """A CLI value: JSON literal if it parses, else string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _split_setting(text: str, flag: str, form: str) -> Tuple[str, str]:
    if "=" not in text:
        raise ValueError(f"{flag} expects {form}, got {text!r}")
    field, _, value = text.partition("=")
    return field.strip(), value


def _cross_product(axes: List[str]) -> List[Dict[str, object]]:
    if not axes:
        raise ValueError("at least one --grid axis is required")
    split = [_split_setting(axis, "--grid", "field=v1,v2,...") for axis in axes]
    names = [name for name, _ in split]
    values = [[_literal(v) for v in text.split(",")] for _, text in split]
    return [dict(zip(names, combo)) for combo in itertools.product(*values)]


def _settings(settings: List[str]) -> Dict[str, object]:
    pairs = (_split_setting(text, "--set", "field=value") for text in settings)
    return {name: _literal(value) for name, value in pairs}


def _seed_list(text: str) -> List[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"--seed-list expects integers s1,s2,... got {text!r}") from None


@dataclass(frozen=True)
class Field:
    """One run field: its job key, check and default, and its CLI flag.

    ``check=None`` marks a second flag for the key of the entry before
    it (``--seed-list`` for ``seeds``): when given, it wins.
    """

    key: str
    check: Optional[Check]
    #: What a job that omits the key gets (checked like a given value).
    default: object
    flag: str
    help: str = ""
    metavar: Optional[str] = None
    #: A repeatable flag, collected into a list for ``read``.
    repeat: bool = False
    #: The flag's default, when it is not the job's.
    cli_default: object = None
    #: Turns the parsed flag into the job value.
    read: Optional[Callable[[object], object]] = None


#: The argparse ``type`` of a flag, by its field's check.  A number's
#: canonical job value is a float: ``2`` and ``2.0`` are one run.
_FLAG_TYPES = {check_seed: int, _count: int, _seeds: int, check_number: float,
               check_finite: float, _rate: float, _names: comma_list}

#: Every field of every job kind, in canonical-spec order.
FIELDS: Dict[str, Tuple[Field, ...]] = {
    "sweep": (
        Field("name", _name, "sweep", "--name", "label recorded in the JSON"),
        Field("grid", _grid, None, "--grid",
              "sweep axis (repeatable; axes combine as a cross product)",
              "FIELD=V1,V2,...", repeat=True, read=_cross_product),
        Field("seeds", _seeds, 1, "--seeds",
              "replicate seeds per point, derived from --master-seed", "N"),
        Field("seeds", None, None, "--seed-list",
              "explicit config seeds used verbatim (overrides --seeds)", "S1,S2,...",
              read=_seed_list),
        Field("master_seed", check_seed, 0, "--master-seed"),
        Field("warmup_s", check_finite, 0.5, "--warmup", metavar="SECONDS"),
        Field("duration_s", check_finite, 1.0, "--duration", metavar="SECONDS"),
        Field("rate_per_participant", _rate, None, "--rate", "orders/s per participant"),
        Field("base", _object, {}, "--set",
              "base config override applied to every point (repeatable)", "FIELD=VALUE",
              repeat=True, read=_settings),
    ),
    "chaos": (
        Field("scenario", _scenario, None, "--scenario", "scenario to run (see list below)",
              "NAME", cli_default="smoke"),
        Field("seed", check_seed, 11, "--seed"),
    ),
    "fairness": (
        Field("name", _name, "fairness", "--name", "label recorded in the JSON"),
        Field("policies", _names, list(POLICY_NAMES), "--policies",
              "fairness backends to compare", "P1,P2,..."),
        Field("clocks", _names, list(DEFAULT_CLOCKS), "--clocks",
              f"clock-sync regimes ({'/'.join(CLOCK_SYNC_MODES)})", "C1,C2,..."),
        Field("scenarios", _names, list(SCENARIOS), "--scenarios", "chaos scenarios",
              "S1,S2,..."),
        Field("seeds", _seeds, 1, "--seeds", "replicate seeds per cell", "N"),
        Field("master_seed", check_seed, 0, "--master-seed"),
        Field("n_participants", _count, 8, "--participants"),
        Field("n_gateways", _count, 4, "--gateways"),
        Field("n_symbols", _count, 10, "--symbols"),
        Field("rate_per_participant", check_number, 300.0, "--rate", "orders/s per participant"),
        Field("warmup_s", check_finite, 0.3, "--warmup", metavar="SECONDS"),
        Field("duration_s", check_finite, 0.8, "--duration", metavar="SECONDS"),
    ),
}


JOB_KINDS = tuple(FIELDS)

#: Each kind's job fields (``FIELDS`` less the second flags).
_JOB_FIELDS = {kind: tuple(f for f in fields if f.check) for kind, fields in FIELDS.items()}


def add_job_flags(parser: argparse.ArgumentParser, kind: str) -> None:
    """Give ``parser`` one flag per field of a ``kind`` job."""
    for field in FIELDS[kind]:
        default = field.default if field.cli_default is None else field.cli_default
        shown = ",".join(default) if isinstance(default, list) else default
        parser.add_argument(
            field.flag,
            action="append" if field.repeat else "store",
            default=[] if field.repeat else default,
            type=_FLAG_TYPES.get(field.check),
            metavar=field.metavar,
            help=field.help if field.repeat or default is None
            else f"{field.help} (default {shown})".lstrip(),
        )


def job_from_args(kind: str, args: argparse.Namespace) -> Dict[str, object]:
    """The normalized ``kind`` job that :func:`add_job_flags`' parsed
    flags describe; raises ``ValueError`` (:class:`JobError` for the
    spec itself) on bad input."""
    raw: Dict[str, object] = {"kind": kind}
    for field in FIELDS[kind]:
        value = getattr(args, field.flag[2:].replace("-", "_"))
        if field.read is not None and value is not None:
            value = field.read(value)
        if value is not None:
            raw[field.key] = value
    return normalize_job(raw)


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
    fields = _JOB_FIELDS[kind]
    unknown = sorted(set(raw) - {field.key for field in fields} - {"kind", "schema"})
    _require(not unknown, f"unknown field(s) for a {kind} job: {', '.join(unknown)}")
    normalized: Dict[str, object] = {"kind": kind}
    for field in fields:
        # A copy: the spec never aliases a module-level default list.
        value = raw.get(field.key, copy.deepcopy(field.default))
        try:
            field.check(field.key, value)
        except ValueError as exc:
            raise JobError(str(exc)) from None
        float_type = _FLAG_TYPES.get(field.check) is float
        normalized[field.key] = float(value) if float_type and value is not None else value
    # The full spec is built (its grid expanded, every point's config
    # built) at submission, so a bad field name or value is a usage
    # error or a 400 here, not a worker crash minutes later.
    if kind != "chaos":
        try:
            if kind == "sweep":
                build_sweep_spec(normalized).validate()
            else:
                build_fairness_study(normalized)[0].validate()
        except (TypeError, ValueError) as exc:
            raise JobError(f"invalid {kind} spec: {exc}") from None
    normalized["schema"] = SCHEMA
    return normalized


def job_key(spec: Dict[str, object], code_version: Optional[str] = None) -> str:
    """Content-addressed run identity for a *normalized* job spec."""
    return content_key({"job": spec}, code_version)


def _spec_fields(spec: Dict[str, object]) -> Dict[str, object]:
    return {field.key: spec[field.key] for field in _JOB_FIELDS[spec["kind"]]}


def build_sweep_spec(spec: Dict[str, object]) -> SweepSpec:
    """Materialize a normalized sweep job as a :class:`SweepSpec` -- the
    one construction behind ``python -m repro sweep`` and a served sweep,
    so the aggregated document (the evidence pack's ``report.json``) is
    byte-identical between the two front doors."""
    return SweepSpec(**_spec_fields(spec))


def build_fairness_study(spec: Dict[str, object]):
    """Materialize a normalized fairness job as ``(SweepSpec, labels)``
    (see :func:`build_sweep_spec`)."""
    return build_fairness_spec(**_spec_fields(spec))


def run_pooled_job(spec: Dict[str, object], **pool) -> Tuple[Dict[str, object], SweepOutcome]:
    """Run a normalized sweep or fairness job: ``(document, outcome)``,
    the document being the aggregated sweep or the frontier.  ``pool``
    is ``run_sweep``'s ``jobs`` / ``cache`` / ``timeout_s`` /
    ``retries`` / ``pool``."""
    if spec["kind"] == "sweep":
        outcome = run_sweep(build_sweep_spec(spec), **pool)
        return outcome.document, outcome
    study, labels = build_fairness_study(spec)
    return run_fairness_study(study, labels, **pool)


def describe(spec: Dict[str, object]) -> str:
    """One-line human label for run listings."""
    kind = spec["kind"]
    if kind == "chaos":
        return f"chaos {spec['scenario']} (seed={spec['seed']})"
    if kind not in ("sweep", "fairness"):
        # A record an older build persisted (RunStore keeps them across upgrades).
        return f"{kind} (unknown job kind)"
    seeds = spec["seeds"]
    n_seeds = len(seeds) if isinstance(seeds, list) else seeds
    if kind == "sweep":
        return f"sweep {spec['name']}: {len(spec['grid'])} point(s) x {n_seeds} seed(s)"
    cells = len(spec["policies"]) * len(spec["clocks"]) * len(spec["scenarios"]) * n_seeds
    return f"fairness {spec['name']}: {'/'.join(spec['policies'])} ({cells} cell(s))"
