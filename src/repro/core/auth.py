"""Participant authentication at the gateways.

Paper §2.1: "Gateways are also required to secure the matching engine
from abuse, e.g., unauthenticated or invalid orders.  The order handler
authenticates and validates orders received from the participants."

Tokens are opaque shared secrets registered with the exchange operator
out of band (in the cluster builder).  Real deployments would use TLS
client certs or cloud IAM; a shared-secret table exercises the same
accept/reject code path in the gateway.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import threading
import time
from typing import Callable, Dict


class AuthRegistry:
    """Shared-secret credential table consulted by gateway order handlers."""

    def __init__(self) -> None:
        self._tokens: Dict[str, str] = {}

    def register(self, participant_id: str, token: str) -> None:
        """Enroll (or rotate) a participant's credential."""
        if not token:
            raise ValueError("token must be non-empty")
        self._tokens[participant_id] = token

    def revoke(self, participant_id: str) -> bool:
        """Remove a participant's credential; True if one existed."""
        return self._tokens.pop(participant_id, None) is not None

    def verify(self, participant_id: str, token: str) -> bool:
        """Constant-time credential check."""
        expected = self._tokens.get(participant_id)
        if expected is None:
            return False
        return hmac.compare_digest(expected, token)

    def is_known(self, participant_id: str) -> bool:
        return participant_id in self._tokens

    @staticmethod
    def mint_token(participant_id: str, operator_secret: str) -> str:
        """Derive a participant token from the operator's secret --
        lets the cluster builder issue credentials deterministically."""
        mac = hmac.new(operator_secret.encode(), participant_id.encode(), hashlib.sha256)
        return mac.hexdigest()

    def __len__(self) -> int:
        return len(self._tokens)

    def __repr__(self) -> str:
        return f"AuthRegistry(participants={len(self._tokens)})"


class RateLimiter:
    """Per-client token-bucket rate limiting.

    Each client gets an independent bucket holding up to ``burst``
    tokens that refills at ``rate_per_s``; :meth:`allow` spends one
    token or reports the caller should be throttled.  Used by the
    ``repro.serve`` control plane to bound per-client request rates,
    and injectable with a fake clock for deterministic tests.

    Thread-safe: the serve API handles requests on a thread per
    connection.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0 < rate_per_s < math.inf:
            raise ValueError(f"rate_per_s must be positive and finite, got {rate_per_s}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate_per_s = float(rate_per_s)
        self.burst = int(burst)
        self._clock = clock
        self._buckets: Dict[str, list] = {}  # client -> [tokens, last_refill]
        self._lock = threading.Lock()

    def allow(self, client_id: str) -> bool:
        """Spend one token from ``client_id``'s bucket if it has one."""
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(client_id)
            if bucket is None:
                bucket = [float(self.burst), now]
                self._buckets[client_id] = bucket
            tokens, last = bucket
            tokens = min(float(self.burst), tokens + (now - last) * self.rate_per_s)
            if tokens >= 1.0:
                bucket[0] = tokens - 1.0
                bucket[1] = now
                return True
            bucket[0] = tokens
            bucket[1] = now
            return False

    def __repr__(self) -> str:
        return (
            f"RateLimiter(rate_per_s={self.rate_per_s}, burst={self.burst}, "
            f"clients={len(self._buckets)})"
        )
