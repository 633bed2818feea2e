"""The paper's own fairness mechanism (§2.2).

Inbound: the clock-synced :class:`~repro.core.sequencer.Sequencer`
ordering by gateway timestamp and holding each order for ``d_s`` past
it.  Outbound: the :class:`~repro.core.holdrelease.HoldReleaseBuffer`
releasing each market-data piece at its engine-prescribed
``t_R = t_M + d_h``.

This policy is the golden-run baseline: it supplies no rule, only the
two configured delays, and touches no RNG stream -- so a cluster built
with ``fairness_policy="cloudex"`` (the default) runs the queue and the
buffer exactly as the paper wires them.  The golden-run guard tests pin
this.
"""

from __future__ import annotations

from repro.fairness.base import FairnessPolicy


class CloudExPolicy(FairnessPolicy):
    """Sequencer hold ``d_s`` + H/R buffer ``d_h`` (paper §2.2)."""

    name = "cloudex"

    def inbound_hold_ns(self, config, rngs) -> int:
        return config.sequencer_delay_ns

    def engine_hold_ns(self, config, rngs) -> int:
        return config.holdrelease_delay_ns
