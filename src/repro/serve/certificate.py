"""Certificates and triage reports for evidence packs.

A *certificate* is the control plane's strongest statement: this run,
of this exact spec, on this exact source tree, completed with its
checker clean -- chaos invariants (conservation, no duplicate
executions, no order loss) for chaos jobs, zero failed tasks for
sweeps and fairness studies.  It binds the claim to the
artifacts by hash and is HMAC-SHA256-signed with the operator secret,
so a pack can be handed to a third party and verified offline
(``python -m repro verify-pack --secret ...``) without trusting the
filesystem it traveled through.

A run whose checker was *not* clean never gets a certificate.  It gets
a ``triage.json`` instead: the machine-readable list of violations or
failures, same provenance fields, no signature -- a work item, not an
attestation.

Both documents are pure functions of deterministic run output, so the
dedup path (two clients, one execution) trivially serves byte-identical
bytes to everyone.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, List, Optional

from repro.cliutil import canonical_json

CERTIFICATE_SCHEMA = "repro-certificate/1"
TRIAGE_SCHEMA = "repro-triage/1"

#: Claims a certificate can make, by job kind.
CLAIMS = {
    "chaos": "chaos-invariants-clean",
    "sweep": "sweep-complete",
    "fairness": "fairness-study-complete",
}


def sign_payload(payload: Dict[str, object], secret: str) -> str:
    """HMAC-SHA256 over the canonical JSON of ``payload``."""
    return hmac.new(secret.encode("utf-8"), canonical_json(payload).encode("utf-8"), hashlib.sha256).hexdigest()


def issue_certificate(
    run_id: str,
    kind: str,
    spec: Dict[str, object],
    code_version: str,
    artifacts: Dict[str, Dict[str, object]],
    secret: str,
) -> Dict[str, object]:
    """A signed clean-run certificate binding claim to artifact hashes.

    ``artifacts`` maps artifact names to their manifest digest entries
    (``{"blake2b": ..., "bytes": ...}``); the certificate embeds them
    so tampering with ``report.json`` or ``trace.jsonl`` invalidates
    the signature, not just the (unsigned) manifest.
    """
    payload: Dict[str, object] = {
        "schema": CERTIFICATE_SCHEMA,
        "run_id": run_id,
        "kind": kind,
        "claim": CLAIMS[kind],
        "spec": spec,
        "code_version": code_version,
        "artifacts": artifacts,
        "violations": 0,
    }
    payload["signature"] = sign_payload(payload, secret)
    return payload


def build_triage(
    run_id: str,
    kind: str,
    spec: Dict[str, object],
    code_version: str,
    violations: List[Dict[str, object]],
) -> Dict[str, object]:
    """The no-certificate outcome: what went wrong, machine-readable."""
    return {
        "schema": TRIAGE_SCHEMA,
        "run_id": run_id,
        "kind": kind,
        "denied_claim": CLAIMS[kind],
        "spec": spec,
        "code_version": code_version,
        "violations": violations,
        "violation_count": len(violations),
    }


def verify_certificate(
    certificate: Dict[str, object],
    secret: Optional[str] = None,
) -> List[str]:
    """Structural + signature checks; returns problems (empty = valid).

    Without ``secret`` only structure is checked and the signature is
    reported unverified -- hash integrity against the pack contents is
    the caller's job (see :func:`repro.serve.evidence.verify_pack`).
    """
    problems: List[str] = []
    if certificate.get("schema") != CERTIFICATE_SCHEMA:
        problems.append(
            f"certificate schema is {certificate.get('schema')!r}, "
            f"expected {CERTIFICATE_SCHEMA!r}"
        )
        return problems
    for field in ("run_id", "kind", "claim", "spec", "code_version", "artifacts", "signature"):
        if field not in certificate:
            problems.append(f"certificate is missing {field!r}")
    if problems:
        return problems
    expected_claim = CLAIMS.get(certificate["kind"])  # type: ignore[arg-type]
    if certificate["claim"] != expected_claim:
        problems.append(
            f"claim {certificate['claim']!r} does not match kind "
            f"{certificate['kind']!r} (expected {expected_claim!r})"
        )
    if certificate.get("violations") != 0:
        problems.append("a certificate must attest zero violations")
    if secret is not None:
        unsigned = {k: v for k, v in certificate.items() if k != "signature"}
        expected = sign_payload(unsigned, secret)
        if not hmac.compare_digest(expected, str(certificate["signature"])):
            problems.append("certificate signature does not verify with the given secret")
    return problems
