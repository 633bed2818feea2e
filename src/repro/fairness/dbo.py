"""DBO-style inbound ordering: delay bounds, no clock sync.

DBO (Goyal et al., PAPERS.md) observes that response-time fairness
does not need globally synchronized clocks: it needs each message
ordered by when it *would have arrived* had it taken the fastest path
its (participant, gateway) pair has ever exhibited.  This backend
implements that idea against the per-gateway paths of the CloudEx
topology:

- For every order the engine records the **lag** between its local
  receipt time and the order's gateway timestamp.  The lag is the sum
  of (unknown gateway clock offset) + (gateway service) + (path
  delay); a sliding-window *minimum* of it converges on (offset + the
  minimum path delay), cancelling the clock offset without ever
  estimating it -- the reason DBO needs no sync.
- An order stamped ``t_g`` at gateway *g* is assigned the **virtual
  arrival** ``v = t_g + min_lag(g)``: the engine-local instant it
  would have arrived via *g*'s fastest observed path.  Virtual
  arrivals of different gateways live on the engine's own clock, so
  they are mutually comparable even though the gateway clocks are not.
- Orders are released in virtual-arrival order after a **guard**
  delay: the largest lag *residual* (window max - window min, i.e. the
  observed path-jitter bound) across gateways, capped at
  ``dbo_guard_cap_us``.  The guard gives an earlier-stamped order on a
  currently-jittery path time to arrive, and the cap bounds the added
  latency -- under calm networks the guard collapses toward zero,
  which is how DBO undercuts a fixed ``d_s`` on latency.

Mechanically this is the one :class:`~repro.core.sequencer.Sequencer`
with :meth:`DelayBounds.rank` as its rank rule and
:meth:`DelayBounds.guard_ns` as its live guard.  Outbound market data
is released on arrival (DBO has no dissemination story), so
``engine_hold_ns`` is 0.  No RNG stream is consumed.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.fairness.base import FairnessPolicy
from repro.sim.timeunits import MICROSECOND


class _PathBound:
    """Sliding-window lag statistics for one gateway's path."""

    __slots__ = ("samples",)

    def __init__(self, window: int) -> None:
        self.samples: Deque[int] = deque(maxlen=window)

    def observe(self, lag_ns: int) -> None:
        self.samples.append(lag_ns)

    def min_lag(self) -> int:
        return min(self.samples)

    def residual(self) -> int:
        return max(self.samples) - min(self.samples)


class DelayBounds:
    """One shard's DBO rule: per-gateway lag windows, read two ways."""

    def __init__(self, window: int, guard_cap_ns: int) -> None:
        self.window = window
        self.guard_cap_ns = guard_cap_ns
        self._bounds: Dict[str, _PathBound] = {}

    def rank(self, priority_key: tuple, arrival_local: int) -> int:
        """Record this item's lag, then return its virtual arrival
        (with the bounds known now; the sequencer freezes it)."""
        gateway_ts, gateway_id = priority_key[0], priority_key[1]
        bound = self._bounds.get(gateway_id)
        if bound is None:
            bound = self._bounds[gateway_id] = _PathBound(self.window)
        bound.observe(arrival_local - gateway_ts)
        return gateway_ts + bound.min_lag()

    def guard_ns(self) -> int:
        """Current guard: the worst observed path-jitter bound, capped."""
        worst = 0
        for bound in self._bounds.values():
            residual = bound.residual()
            if residual > worst:
                worst = residual
        return worst if worst < self.guard_cap_ns else self.guard_cap_ns


class DboPolicy(FairnessPolicy):
    """Response-time fairness via measured delay bounds (no clock sync)."""

    name = "dbo"
    hold_early_pieces = False

    def shard_rule(self, config):
        bounds = DelayBounds(config.dbo_window, int(config.dbo_guard_cap_us * MICROSECOND))
        return bounds.rank, bounds.guard_ns

    def inbound_hold_ns(self, config, rngs) -> int:
        return 0

    def engine_hold_ns(self, config, rngs) -> int:
        return 0
