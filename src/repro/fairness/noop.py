"""The no-op baseline: no hold, no resequencing, anywhere.

Inbound orders are ranked by their arrival instant on the engine clock
and held for nothing, so they are processed strictly in arrival order
(a genuine FIFO -- unlike a ``d_s = 0`` gateway-timestamp rank, which
still timestamp-sorts whatever backlog accumulates while the engine is
busy).  Outbound market data is dispensed the instant it reaches the
gateway, and the engine stamps ``release_at`` with zero hold, so every
piece that takes nonzero network time arrives "late" by construction --
the honest statement that passthrough dissemination is unfair.

This is the lower envelope of the frontier study: minimum added
latency, minimum CPU (an arrival is never in the future, so no release
timer is ever armed), maximum unfairness -- what a cloud exchange looks
like with CloudEx's machinery turned off.
"""

from __future__ import annotations

from repro.fairness.base import FairnessPolicy


def arrival_rank(priority_key: tuple, arrival_local: int) -> int:
    """Rank by when the engine saw the item, ignoring its timestamp."""
    return arrival_local


class NoopPolicy(FairnessPolicy):
    """Direct passthrough in both directions."""

    name = "noop"
    hold_early_pieces = False

    def shard_rule(self, config):
        return arrival_rank, None

    def inbound_hold_ns(self, config, rngs) -> int:
        return 0

    def engine_hold_ns(self, config, rngs) -> int:
        return 0
