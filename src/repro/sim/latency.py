"""Cloud-like network latency models.

The paper's central premise is that public-cloud latencies are variable
and time-varying: orders overtake each other en route to the exchange
and market data arrives at gateways at different times.  Each link in
the simulated network draws per-message one-way delays from one of the
models here.

The workhorse is :func:`cloud_link`'s :class:`CloudLinkLatency` -- a
propagation floor plus gamma queueing jitter plus rare hypervisor
spikes, sampled in one call -- which backs every link of a cluster.
The cluster wraps it in :class:`StragglerLatency` (a persistently slow
VM -- the motivation for ROS, §3) and :class:`PeriodicInjectedDelay`
(the 0/400/200 us every-6-seconds schedule of Fig. 5), and uses
:class:`GammaLatency` for NTP's asymmetric millisecond probe paths.
The remaining models (constant, uniform, lognormal, spiky, composite)
are the building blocks ``CloudLinkLatency`` is defined against and the
null models of the unit tests; nothing under ``src/`` builds one for a
run.

All ``sample`` methods take the current true time so models can be
time-varying, and return integer nanoseconds >= ``floor_ns``.

``sample_many`` draws one delay per entry of an int64 array of true
times.  The base class loops ``sample``; the models a cluster builds
draw *column by column* -- every jitter, then every spike coin, then one
factor per spike -- with the scalar method's truncation, spike and floor
arithmetic, so a window of one is draw for draw ``sample`` and
``tests/sim/test_latency.py`` pins a longer one to the same scalar calls
made in column order.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.timeunits import MICROSECOND


class LatencyModel:
    """Base class: a distribution over one-way message delays."""

    #: No message is delivered faster than this (propagation floor).
    floor_ns: int = 1_000

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        """Draw a one-way delay in integer nanoseconds."""
        raise NotImplementedError

    def sample_many(self, rng: np.random.Generator, now_ns: np.ndarray) -> np.ndarray:
        """Draw one delay per entry of ``now_ns``, as an int64 array."""
        return np.array([self.sample(rng, int(t)) for t in now_ns], dtype=np.int64)

    def split(self) -> "Tuple[LatencyModel, Optional[Callable[[int, int], int]]]":
        """``(drawn, finish)``: the random part of this model and the rest.

        ``drawn.sample_many`` reads only the count of its times, so a link
        draws it ahead in blocks (DESIGN §4.11); ``finish(delay, now_ns)``
        makes one such draw what ``sample(rng, now_ns)`` would have
        returned (``None``: nothing to do).  A time-varying model overrides.
        """
        return self, None

    def _clamp(self, value: float) -> int:
        sampled = int(value)
        return sampled if sampled >= self.floor_ns else self.floor_ns

    def _clamp_many(self, values: np.ndarray) -> np.ndarray:
        """``_clamp`` per entry: truncate toward zero, then the floor."""
        return np.maximum(values.astype(np.int64), self.floor_ns)


class ConstantLatency(LatencyModel):
    """A fixed delay -- the 'equalized cable lengths' of an on-premise
    exchange, and the right null model for unit tests."""

    def __init__(self, delay_ns: int) -> None:
        if delay_ns < 0:
            raise ValueError(f"delay must be non-negative, got {delay_ns}")
        self.delay_ns = int(delay_ns)
        self.floor_ns = min(LatencyModel.floor_ns, self.delay_ns)

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        return self.delay_ns

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay_ns})"


class UniformLatency(LatencyModel):
    """Uniform delay in ``[lo_ns, hi_ns]``.

    Like :class:`ConstantLatency`, the propagation floor is lowered to
    ``lo_ns`` when the requested range starts below the class default:
    ``UniformLatency(0, 500)`` really samples ``[0, 500]``, rather than
    silently clamping every draw up to 1000 ns (which would exceed
    ``hi_ns``, inverting the caller's bounds).
    """

    def __init__(self, lo_ns: int, hi_ns: int) -> None:
        if not 0 <= lo_ns <= hi_ns:
            raise ValueError(f"need 0 <= lo <= hi, got [{lo_ns}, {hi_ns}]")
        self.lo_ns = int(lo_ns)
        self.hi_ns = int(hi_ns)
        self.floor_ns = min(LatencyModel.floor_ns, self.lo_ns)

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        return self._clamp(rng.integers(self.lo_ns, self.hi_ns + 1))

    def __repr__(self) -> str:
        return f"UniformLatency({self.lo_ns}, {self.hi_ns})"


class LognormalLatency(LatencyModel):
    """Lognormal delay parameterized by its median.

    ``delay = median * exp(sigma * Z)`` with standard-normal Z.  The
    median pins the body; ``sigma`` controls tail weight (sigma ~0.25
    gives p99.9/median ~2.2; sigma ~0.45 gives ~4).
    """

    def __init__(self, median_ns: int, sigma: float) -> None:
        if median_ns <= 0:
            raise ValueError(f"median must be positive, got {median_ns}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.median_ns = int(median_ns)
        self.sigma = float(sigma)

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        z = rng.standard_normal()
        return self._clamp(self.median_ns * math.exp(self.sigma * z))

    def __repr__(self) -> str:
        return f"LognormalLatency(median_ns={self.median_ns}, sigma={self.sigma})"


class GammaLatency(LatencyModel):
    """Base propagation delay plus gamma-distributed queueing delay.

    With ``shape < 1`` the queueing term has substantial probability
    mass near zero -- the un-queued probes whose lower envelope Huygens'
    filtering recovers -- while still producing a heavy tail.

    ``floor_ns`` is an escape hatch overriding the class-level 1000 ns
    propagation floor: pass ``floor_ns=0`` when using this as a pure
    jitter component inside a :class:`CompositeLatency` (the floor is
    then applied once to the composed sum, not to each term), or a
    larger value to model a longer physical path.  Unlike
    :class:`UniformLatency`/:class:`ConstantLatency` the floor is *not*
    auto-lowered from the parameters, because ``base_ns`` is a location
    shift, not an upper bound promise -- callers must opt in.
    """

    def __init__(
        self, base_ns: int, shape: float, scale_ns: float, floor_ns: Optional[int] = None
    ) -> None:
        if base_ns < 0 or shape <= 0 or scale_ns <= 0:
            raise ValueError(f"invalid GammaLatency({base_ns}, {shape}, {scale_ns})")
        self.base_ns = int(base_ns)
        self.shape = float(shape)
        self.scale_ns = float(scale_ns)
        if floor_ns is not None:
            self.floor_ns = int(floor_ns)

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        return self._clamp(self.base_ns + rng.gamma(self.shape, self.scale_ns))

    def sample_many(self, rng: np.random.Generator, now_ns: np.ndarray) -> np.ndarray:
        return self._clamp_many(self.base_ns + rng.gamma(self.shape, self.scale_ns, len(now_ns)))

    def __repr__(self) -> str:
        return f"GammaLatency(base_ns={self.base_ns}, shape={self.shape}, scale_ns={self.scale_ns})"


class SpikyLatency(LatencyModel):
    """Wraps a base model with rare multiplicative jitter spikes.

    With probability ``spike_prob`` the sampled delay is multiplied by
    a factor drawn uniformly from ``[2, spike_scale]`` -- hypervisor
    preemptions and incast events in the cloud fabric.
    """

    def __init__(self, base: LatencyModel, spike_prob: float, spike_scale: float = 6.0) -> None:
        if not 0.0 <= spike_prob <= 1.0:
            raise ValueError(f"spike_prob must be in [0,1], got {spike_prob}")
        if spike_scale < 2.0:
            raise ValueError(f"spike_scale must be >= 2, got {spike_scale}")
        self.base = base
        self.spike_prob = float(spike_prob)
        self.spike_scale = float(spike_scale)

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        delay = self.base.sample(rng, now_ns)
        if self.spike_prob > 0.0 and rng.random() < self.spike_prob:
            delay = int(delay * rng.uniform(2.0, self.spike_scale))
        return self._clamp(delay)

    def __repr__(self) -> str:
        return f"SpikyLatency({self.base!r}, p={self.spike_prob}, scale={self.spike_scale})"


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

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        return self._clamp(self.base.sample(rng, now_ns) * self.multiplier)

    def sample_many(self, rng: np.random.Generator, now_ns: np.ndarray) -> np.ndarray:
        return self._clamp_many(self.base.sample_many(rng, now_ns) * self.multiplier)

    def split(self):
        # Time-free, so it stays in the block -- unless the base has a
        # timed step, which ``sample`` applies before the multiplier.
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

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        return self._clamp(self.base.sample(rng, now_ns) + self.extra_at(now_ns))

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


class CompositeLatency(LatencyModel):
    """Sum of independent components (propagation + NIC + fabric ...)."""

    def __init__(self, components: Sequence[LatencyModel]) -> None:
        if not components:
            raise ValueError("components must be non-empty")
        self.components: List[LatencyModel] = list(components)
        # Constant components draw no randomness, so their sum can be
        # folded at construction without disturbing the RNG stream; the
        # common cloud_link() shape (constant + one jitter model) then
        # samples with a single dispatch instead of a genexpr sum.
        self._const_ns = 0
        variable: List[LatencyModel] = []
        for component in self.components:
            if type(component) is ConstantLatency:
                self._const_ns += component.delay_ns
            else:
                variable.append(component)
        self._variable: List[LatencyModel] = variable
        self._single = variable[0] if len(variable) == 1 else None

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        single = self._single
        if single is not None:
            value = self._const_ns + single.sample(rng, now_ns)
        else:
            value = self._const_ns
            for component in self._variable:
                value += component.sample(rng, now_ns)
        return value if value >= self.floor_ns else self.floor_ns

    def __repr__(self) -> str:
        return f"CompositeLatency({self.components!r})"


class CloudLinkLatency(LatencyModel):
    """Fused constant + gamma jitter + rare spikes (:func:`cloud_link`).

    Semantically identical to ``CompositeLatency([ConstantLatency(base),
    SpikyLatency(GammaLatency(0, shape, scale), p, s)])`` with the two
    jitter models' floors at 0 (the floor applies once, to the sum) --
    same RNG draw order, same clamping arithmetic -- but sampled in one
    call; ``tests/sim/test_latency.py`` holds it to that draw for draw.
    This model backs every link in a cluster, so the layered dispatch
    (4 method calls + 2 clamps per message) is worth flattening.
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

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        # GammaLatency(0, shape, scale, floor_ns=0).sample
        jitter = int(rng.gamma(self.jitter_shape, self.jitter_scale_ns))
        if jitter < 0:
            jitter = 0
        # SpikyLatency.sample (floor 0)
        spike_prob = self.spike_prob
        if spike_prob > 0.0 and rng.random() < spike_prob:
            jitter = int(jitter * rng.uniform(2.0, self.spike_scale))
            if jitter < 0:
                jitter = 0
        # CompositeLatency.sample (class-default floor)
        value = self.base_ns + jitter
        return value if value >= self.floor_ns else self.floor_ns

    def sample_many(self, rng: np.random.Generator, now_ns: np.ndarray) -> np.ndarray:
        # ``sample`` column by column.  Its ``jitter < 0`` guards have no
        # counterpart: a gamma draw and a factor >= 2 are never negative.
        n = len(now_ns)
        jitter = rng.gamma(self.jitter_shape, self.jitter_scale_ns, n).astype(np.int64)
        if self.spike_prob > 0.0:
            spiked = rng.random(n) < self.spike_prob
            n_spiked = np.count_nonzero(spiked)
            if n_spiked:
                factors = rng.uniform(2.0, self.spike_scale, n_spiked)
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
    # Parameter validation via the composable models (the fused model
    # trusts its inputs).
    GammaLatency(0, jitter_shape, jitter_scale_us * MICROSECOND, floor_ns=0)
    if spike_prob > 0.0:
        SpikyLatency(ConstantLatency(0), spike_prob, spike_scale)
    return CloudLinkLatency(
        int(base_us * MICROSECOND),
        jitter_shape,
        jitter_scale_us * MICROSECOND,
        spike_prob,
        spike_scale,
    )
