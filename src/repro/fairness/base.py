"""The fairness-policy interface: a policy is a rule, not a mechanism.

CloudEx's fair-access machinery answers two questions, one per traffic
direction:

1. **Inbound ordering** -- in what order, and after what hold, does the
   matching engine process orders that raced through the cloud fabric?
2. **Outbound release** -- when does each gateway dispense a piece of
   market data to its subscribed participants?

The paper's answer (clock-synced sequencer hold ``d_s`` + hold/release
buffers at ``t_R = t_M + d_h``) is one point in a design space that
later systems explored differently: DBO (Goyal et al.) equalizes
response time with per-pair delay bounds and **no clock sync**, and
Probabilistic Fair Ordering (Haseeb et al.) relaxes the guarantee to a
posterior-probability threshold to cut latency.  Both keep the paper's
two objects and change only *which timestamp the queue orders by and
how long it holds*, so that is all a :class:`FairnessPolicy` says.
The cluster can then swap backends under identical seeds and chaos --
the head-to-head frontier study CloudEx itself couldn't run.

Contract
--------
There is one inbound queue, :class:`repro.core.sequencer.Sequencer`
(one per engine shard), and one outbound buffer for market data,
:class:`repro.core.holdrelease.HoldReleaseBuffer` (one per gateway;
trade confirmations are the exception -- the gateway holds them to
``release_at`` on its own timer whatever the policy says, see ROADMAP's
scoreboard item, bug 2).
The exchange and the gateways construct them directly and ask the
policy four things:

- :meth:`FairnessPolicy.shard_rule` -- ``(rank, guard)`` for one
  shard's queue; ``None`` in either place keeps the paper's choice.
  ``rank(priority_key, arrival_local)`` returns the virtual timestamp
  the item is ordered by; ``guard()`` returns the hold in force right
  now.  A rule may read the item's ``(gateway_timestamp, gateway_id,
  gateway_seq)`` key, its arrival instant on the engine clock, and
  state it accumulated from earlier calls on the *same shard* -- never
  the item, another shard, a gateway's clock, or true time.  Called
  once per shard, so per-shard state lives in what it returns.
- :meth:`FairnessPolicy.inbound_hold_ns` -- the queue's initial ``d_s``
  (ignored under a guard).  Only cloudex supports runtime control of it;
  the config layer rejects DDP targets for other policies.
- :meth:`FairnessPolicy.engine_hold_ns` -- the hold the engine adds
  when stamping ``release_at`` (``d_h``; 0 for release-on-arrival).
- :attr:`FairnessPolicy.hold_early_pieces` -- whether a gateway holds a
  piece that arrives before ``release_at`` or releases it on arrival.

What no policy can change, because the one queue and the one buffer
own it: every released item yields a ``SequencerSample`` whose queuing
delay runs from enqueue to *eligibility*; out-of-sequence is judged
against the preceding release; a piece arriving exactly at
``release_at`` is on time and strictly after is late (the PR-3
boundary); every handled piece yields one H/R report; a late
piece logs ``hr.late_release`` and counts in ``hr.late_pieces``.

Determinism
-----------
Policies must draw randomness only from named streams of the cluster's
:class:`repro.sim.rng.RngRegistry` (``fairness:<policy>:<purpose>``).
Streams are keyed by name, so a policy that is *not* selected consumes
nothing and perturbs nothing.  The cloudex policy returns no rule and
touches no stream: the default cluster is bit-identical to the paper's
wiring, which the golden-run guard tests pin.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.sequencer import RankRule

#: Canonical backend order: baseline mechanisms first, passthrough last.
POLICY_NAMES = ("cloudex", "dbo", "pfo", "noop")


class FairnessPolicy:
    """What one fairness backend decides (see the module docstring).

    One instance is created per cluster (see
    :func:`repro.fairness.make_policy`) and shared by the exchange
    server and every gateway.
    """

    #: Backend name as it appears in ``CloudExConfig.fairness_policy``.
    name: str = "abstract"
    #: Gateways hold an early piece until ``release_at`` (False:
    #: release on arrival).
    hold_early_pieces: bool = True

    def shard_rule(self, config) -> Tuple[Optional[RankRule], Optional[Callable[[], int]]]:
        """``(rank, guard)`` for one shard's sequencer; the default is
        the paper's: gateway-timestamp order under the settable hold."""
        return None, None

    def inbound_hold_ns(self, config, rngs) -> int:
        """Initial sequencer hold ``d_s``."""
        raise NotImplementedError

    def engine_hold_ns(self, config, rngs) -> int:
        """Initial hold the engine adds when stamping ``release_at``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
