"""Probabilistic fair ordering: hold just long enough, probably.

PFO (Haseeb et al., PAPERS.md) relaxes CloudEx's deterministic hold to
a probabilistic guarantee: release a message once the posterior
probability that no earlier-sent message is still in flight exceeds a
threshold θ.  Under the cluster's configured latency model that
posterior has a closed form:

- A message stamped ``t`` through any gateway reaches the engine at
  ``t + D`` with ``D`` drawn from the gateway->engine path model (plus
  fixed gateway/ingress service).  If the engine holds every message
  for ``q`` past its stamp, an earlier-stamped message through one of
  the other ``n-1`` gateways has arrived in time with probability
  ``P(D <= q)``; all of them have with ``P(D <= q)^(n-1)``.
- So the hold that achieves posterior θ is the ``p``-quantile of ``D``
  with ``p = θ^(1/(n-1))`` -- mechanically the paper's sequencer with
  ``d_s = q``, but with ``q`` *derived from the fabric's latency
  distribution and an explicit miss probability* instead of chosen as
  a pessimistic constant.  That derivation is the latency win: for
  θ = 0.9 on the default fabric, q lands well under the fixed 500 us.

Calibration samples the configured model a fixed number of times
(``repro.core.config.PFO_CALIBRATION_DRAWS``, 512; not a config field)
from the dedicated RNG streams ``fairness:pfo:calibration`` (inbound)
and ``fairness:pfo:outbound`` (the θ-quantile engine->gateway hold
``d_h``), so the policy is deterministic in the cluster seed and
perturbs no other stream.  The policy supplies no rule: the
:class:`~repro.core.sequencer.Sequencer` and
:class:`~repro.core.holdrelease.HoldReleaseBuffer` run as under cloudex
-- PFO changes how the delays are *chosen*, not how they are *enforced*.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import GATEWAY_SERVICE_US, INGRESS_SERVICE_US, PFO_CALIBRATION_DRAWS
from repro.fairness.base import FairnessPolicy
from repro.sim.timeunits import MICROSECOND


def _empirical_quantile_ns(model, rng, draws: int, p: float) -> int:
    """The p-quantile of ``draws`` Monte-Carlo samples of ``model``.

    Each sample is its own window of one (``LatencyModel.sample``): one
    column of ``draws`` would read the stream in another order and move
    both calibrated holds.
    """
    samples = sorted(model.sample(rng, 0) for _ in range(draws))
    index = int(p * draws)
    if index >= draws:
        index = draws - 1
    return samples[index]


class PfoPolicy(FairnessPolicy):
    """Threshold-θ probabilistic ordering with model-calibrated holds."""

    name = "pfo"

    def __init__(self) -> None:
        self._inbound_ns: Optional[int] = None
        self._outbound_ns: Optional[int] = None

    # -- calibration (once per cluster; cached on the instance) -------
    def inbound_hold_ns(self, config, rngs) -> int:
        """The d_s-equivalent hold: the θ^(1/(n-1))-quantile of D."""
        if self._inbound_ns is None:
            others = max(1, config.n_gateways - 1)
            p = config.pfo_threshold ** (1.0 / others)
            quantile = _empirical_quantile_ns(
                config.link_model("gateway_engine"),
                rngs.stream("fairness:pfo:calibration"),
                PFO_CALIBRATION_DRAWS,
                p,
            )
            overhead = int((GATEWAY_SERVICE_US + INGRESS_SERVICE_US) * MICROSECOND)
            self._inbound_ns = quantile + overhead
        return self._inbound_ns

    def engine_hold_ns(self, config, rngs) -> int:
        """The d_h-equivalent hold: the θ-quantile of one e->g delivery."""
        if self._outbound_ns is None:
            self._outbound_ns = _empirical_quantile_ns(
                config.link_model("gateway_engine"),
                rngs.stream("fairness:pfo:outbound"),
                PFO_CALIBRATION_DRAWS,
                config.pfo_threshold,
            )
        return self._outbound_ns
