"""Cloud-like network latency models.

The paper's central premise is that public-cloud latencies are variable
and time-varying: orders overtake each other en route to the exchange
and market data arrives at gateways at different times.  Each link in
the simulated network draws per-message one-way delays from one of the
models here.

The workhorse is :func:`cloud_link`'s :class:`CloudLinkLatency` -- a
propagation floor plus gamma queueing jitter plus rare hypervisor
spikes -- which backs every link of a cluster.  The cluster wraps it in
:class:`StragglerLatency` (a persistently slow VM -- the motivation for
ROS, §3) and :class:`PeriodicInjectedDelay` (the 0/400/200 us
every-6-seconds schedule of Fig. 5), and uses :class:`GammaLatency` for
NTP's asymmetric millisecond probe paths.

Each model has one draw body, ``sample_many(rng, now_ns)``: one delay
per entry of an int64 array of true times, in integer nanoseconds >=
``floor_ns``, drawn *column by column* -- every jitter, then every spike
coin, then one factor per spike.  ``sample(rng, now_ns)`` is a window of
one, defined once in the base class; its one caller under ``src/`` is
PFO's calibration.  The scalar bodies these columns were vectorised from
live in ``tests/sim/reference.py``, the oracle ``tests/sim/test_latency.py``
pins every column to draw for draw.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.sim.timeunits import MICROSECOND


class LatencyModel:
    """Base class: a distribution over one-way message delays."""

    #: No message is delivered faster than this (propagation floor).
    floor_ns: int = 1_000

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        """Draw one one-way delay in integer nanoseconds: a window of one."""
        return int(self.sample_many(rng, np.array([now_ns], dtype=np.int64))[0])

    def sample_many(self, rng: np.random.Generator, now_ns: np.ndarray) -> np.ndarray:
        """Draw one delay per entry of ``now_ns``, as an int64 array."""
        raise NotImplementedError

    def split(self) -> "Tuple[LatencyModel, Optional[Callable[[int, int], int]]]":
        """``(drawn, finish)``: the random part of this model and the rest.

        ``drawn.sample_many`` reads only the count of its times, so a link
        draws it ahead in blocks (DESIGN §4.11); ``finish(delay, now_ns)``
        makes one such draw what a window of one at ``now_ns`` would have
        returned (``None``: nothing to do).  A time-varying model overrides.
        """
        return self, None

    def _clamp(self, value: float) -> int:
        sampled = int(value)
        return sampled if sampled >= self.floor_ns else self.floor_ns

    def _clamp_many(self, values: np.ndarray) -> np.ndarray:
        """``_clamp`` per entry: truncate toward zero, then the floor."""
        return np.maximum(values.astype(np.int64), self.floor_ns)


class GammaLatency(LatencyModel):
    """Base propagation delay plus gamma-distributed queueing delay.

    With ``shape < 1`` the queueing term has substantial probability
    mass near zero -- the un-queued probes whose lower envelope Huygens'
    filtering recovers -- while still producing a heavy tail.  Every
    draw is held to the class's 1000 ns propagation floor.
    """

    def __init__(self, base_ns: int, shape: float, scale_ns: float) -> None:
        if base_ns < 0 or shape <= 0 or scale_ns <= 0:
            raise ValueError(f"invalid GammaLatency({base_ns}, {shape}, {scale_ns})")
        self.base_ns = int(base_ns)
        self.shape = float(shape)
        self.scale_ns = float(scale_ns)

    def sample_many(self, rng: np.random.Generator, now_ns: np.ndarray) -> np.ndarray:
        jitter = rng.gamma(self.shape, self.scale_ns, size=len(now_ns))
        return self._clamp_many(self.base_ns + jitter)

    def __repr__(self) -> str:
        return f"GammaLatency(base_ns={self.base_ns}, shape={self.shape}, scale_ns={self.scale_ns})"


class StragglerLatency(LatencyModel):
    """A persistently slow path: every sample is multiplied by a factor.

    Models the straggler gateways of §3 ("VMs are not homogeneous and
    stragglers are common in the cloud").
    """

    def __init__(self, base: LatencyModel, multiplier: float) -> None:
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        self.base = base
        self.multiplier = float(multiplier)

    def sample_many(self, rng: np.random.Generator, now_ns: np.ndarray) -> np.ndarray:
        return self._clamp_many(self.base.sample_many(rng, now_ns) * self.multiplier)

    def split(self):
        # Time-free, so it stays in the block -- unless the base has a
        # timed step, which applies before the multiplier.
        drawn, inner = self.base.split()
        if inner is None:
            return self, None
        return drawn, lambda delay, now_ns: self._clamp(inner(delay, now_ns) * self.multiplier)

    def __repr__(self) -> str:
        return f"StragglerLatency({self.base!r}, x{self.multiplier})"


class PeriodicInjectedDelay(LatencyModel):
    """Adds a schedule of extra delays that cycles with true time.

    Fig. 5's setup -- "periodically injecting 0, 400 and 200 us of
    delays to the gateway-engine link every 6 seconds" -- is
    ``PeriodicInjectedDelay(base, phases=[0, 400_000, 200_000],
    phase_ns=6 * SECOND)``.
    """

    def __init__(self, base: LatencyModel, phases: Sequence[int], phase_ns: int) -> None:
        if not phases:
            raise ValueError("phases must be non-empty")
        if phase_ns <= 0:
            raise ValueError(f"phase duration must be positive, got {phase_ns}")
        self.base = base
        self.phases: Tuple[int, ...] = tuple(int(p) for p in phases)
        self.phase_ns = int(phase_ns)

    def extra_at(self, now_ns: int) -> int:
        """The injected delay in force at true time ``now_ns``."""
        index = (now_ns // self.phase_ns) % len(self.phases)
        return self.phases[index]

    def sample_many(self, rng: np.random.Generator, now_ns: np.ndarray) -> np.ndarray:
        # The phase is picked per entry: a window may straddle a step.
        extra = np.array(self.phases, dtype=np.int64)[(now_ns // self.phase_ns) % len(self.phases)]
        return np.maximum(self.base.sample_many(rng, now_ns) + extra, self.floor_ns)

    def split(self):
        drawn, inner = self.base.split()
        if inner is None:
            return drawn, lambda delay, now_ns: self._clamp(delay + self.extra_at(now_ns))
        return drawn, lambda delay, now_ns: self._clamp(inner(delay, now_ns) + self.extra_at(now_ns))

    def __repr__(self) -> str:
        return f"PeriodicInjectedDelay({self.base!r}, phases={self.phases}, phase_ns={self.phase_ns})"


class CloudLinkLatency(LatencyModel):
    """Propagation floor + gamma jitter + rare spikes (:func:`cloud_link`).

    A delay is ``base_ns`` plus a truncated gamma jitter which, with
    probability ``spike_prob``, is multiplied by a factor drawn uniformly
    from ``[2, spike_scale]`` (hypervisor preemptions and incast events)
    and truncated again; the floor applies once, to the sum.
    ``tests/sim/test_latency.py`` holds it draw for draw to the sum of a
    constant and a spiky floorless gamma, composed in the test oracle.
    """

    def __init__(
        self,
        base_ns: int,
        jitter_shape: float,
        jitter_scale_ns: float,
        spike_prob: float,
        spike_scale: float,
    ) -> None:
        self.base_ns = int(base_ns)
        self.jitter_shape = float(jitter_shape)
        self.jitter_scale_ns = float(jitter_scale_ns)
        self.spike_prob = float(spike_prob)
        self.spike_scale = float(spike_scale)

    def sample_many(self, rng: np.random.Generator, now_ns: np.ndarray) -> np.ndarray:
        # A gamma draw and a factor >= 2 are never negative, so a
        # truncated jitter needs no floor of its own.
        n = len(now_ns)
        jitter = rng.gamma(self.jitter_shape, self.jitter_scale_ns, size=n).astype(np.int64)
        if self.spike_prob > 0.0:
            spiked = rng.random(size=n) < self.spike_prob
            n_spiked = np.count_nonzero(spiked)
            if n_spiked:
                factors = rng.uniform(2.0, self.spike_scale, size=n_spiked)
                jitter[spiked] = (jitter[spiked] * factors).astype(np.int64)
        return np.maximum(self.base_ns + jitter, self.floor_ns)

    def __repr__(self) -> str:
        return (
            f"CloudLinkLatency(base_ns={self.base_ns}, shape={self.jitter_shape}, "
            f"scale_ns={self.jitter_scale_ns}, p={self.spike_prob}, "
            f"spike_scale={self.spike_scale})"
        )


def cloud_link(
    base_us: float,
    jitter_shape: float = 0.7,
    jitter_scale_us: float = 30.0,
    spike_prob: float = 0.001,
    spike_scale: float = 6.0,
) -> LatencyModel:
    """Convenience factory for a typical intra-zone cloud link.

    The delay is a hard propagation/virtualization floor (``base_us``)
    plus gamma-distributed queueing jitter with occasional large
    spikes.  This structure matters twice over:

    - the *body and tail* (floor + gamma + spikes) calibrate to the
      paper's submission-latency percentiles (Fig. 6a, RF=1), and
    - the *mass near the floor* is what lets a Huygens-style minimum
      envelope recover nanosecond-accurate clock estimates over the
      very same links (§4: 159 ns p99 offsets despite ~100 us
      latencies).
    """
    if base_us <= 0:
        raise ValueError(f"base must be positive, got {base_us}")
    if jitter_shape <= 0 or jitter_scale_us <= 0:
        raise ValueError(f"invalid jitter gamma({jitter_shape}, {jitter_scale_us} us)")
    if not 0.0 <= spike_prob <= 1.0:
        raise ValueError(f"spike_prob must be in [0,1], got {spike_prob}")
    if spike_prob > 0.0 and spike_scale < 2.0:
        raise ValueError(f"spike_scale must be >= 2, got {spike_scale}")
    return CloudLinkLatency(
        int(base_us * MICROSECOND),
        jitter_shape,
        jitter_scale_us * MICROSECOND,
        spike_prob,
        spike_scale,
    )
