"""Scalar references the vectorised substrate is pinned to.

- :func:`local_to_true`: the per-round clock inversion the unrolled one
  replaced.
- The latency oracle: :func:`sample` is the scalar body of each model in
  :mod:`repro.sim.latency` (one delay, drawn the way a per-message draw
  once was), and :func:`sample_columns` makes the same scalar calls in
  the column order ``sample_many`` reads its stream in.  A cloud link's
  scalar body is the composition it is defined as: a constant plus a
  spiky, floorless gamma jitter, floored once.
- The models no run builds -- constant, uniform, lognormal, gamma with
  its own floor, spiky and composite -- defined by their scalar draw
  (:class:`ScalarLatency`): the oracle's building blocks and the tests'
  null link models.
"""

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.sim import latency
from repro.sim.clock import HostClock
from repro.sim.latency import LatencyModel

_BILLION = 1_000_000_000


def local_to_true(clock: HostClock, local_ns: int) -> int:
    """True instant at which ``clock.now()`` reads ``local_ns``: three
    fixed-point rounds on the discipline map, then three on the raw map."""
    if clock._corr_rate_ppb == 0:
        raw = local_ns + clock._corr0_ns
    else:
        raw = local_ns
        for _ in range(3):
            raw = local_ns + clock._correction_at_raw(raw)
    if clock.drift_ppb == 0:
        return raw - clock.offset_ns
    t = raw - clock.offset_ns
    for _ in range(3):
        t = raw - clock.offset_ns - (clock.drift_ppb * t) // _BILLION
    return t


# ----------------------------------------------------------------------
# Latency models defined by their scalar draw
# ----------------------------------------------------------------------
class ScalarLatency(LatencyModel):
    """A model defined by its scalar draw: a column is that draw, entry
    by entry, so a link can carry one."""

    def sample(self, rng: np.random.Generator, now_ns: int) -> int:
        raise NotImplementedError

    def sample_many(self, rng: np.random.Generator, now_ns: np.ndarray) -> np.ndarray:
        return np.array([self.sample(rng, int(t)) for t in now_ns], dtype=np.int64)


class ConstantLatency(ScalarLatency):
    """A fixed delay -- the 'equalized cable lengths' of an on-premise
    exchange, and the null model of the unit tests."""

    def __init__(self, delay_ns: int) -> None:
        if delay_ns < 0:
            raise ValueError(f"delay must be non-negative, got {delay_ns}")
        self.delay_ns = int(delay_ns)
        self.floor_ns = min(LatencyModel.floor_ns, self.delay_ns)

    def sample(self, rng, now_ns):
        return self.delay_ns


class UniformLatency(ScalarLatency):
    """Uniform delay in ``[lo_ns, hi_ns]``; the floor is lowered to
    ``lo_ns`` when the range starts below it, so no draw exceeds ``hi_ns``."""

    def __init__(self, lo_ns: int, hi_ns: int) -> None:
        if not 0 <= lo_ns <= hi_ns:
            raise ValueError(f"need 0 <= lo <= hi, got [{lo_ns}, {hi_ns}]")
        self.lo_ns = int(lo_ns)
        self.hi_ns = int(hi_ns)
        self.floor_ns = min(LatencyModel.floor_ns, self.lo_ns)

    def sample(self, rng, now_ns):
        return self._clamp(rng.integers(self.lo_ns, self.hi_ns + 1))


class LognormalLatency(ScalarLatency):
    """``median * exp(sigma * Z)`` with standard-normal Z."""

    def __init__(self, median_ns: int, sigma: float) -> None:
        if median_ns <= 0:
            raise ValueError(f"median must be positive, got {median_ns}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.median_ns = int(median_ns)
        self.sigma = float(sigma)

    def sample(self, rng, now_ns):
        return self._clamp(self.median_ns * math.exp(self.sigma * rng.standard_normal()))


class GammaLatency(ScalarLatency):
    """:class:`repro.sim.latency.GammaLatency`'s scalar body, with its
    floor as a parameter (``floor_ns=0``: a pure jitter term)."""

    def __init__(self, base_ns: int, shape: float, scale_ns: float, floor_ns: Optional[int] = None):
        if base_ns < 0 or shape <= 0 or scale_ns <= 0:
            raise ValueError(f"invalid GammaLatency({base_ns}, {shape}, {scale_ns})")
        self.base_ns = int(base_ns)
        self.shape = float(shape)
        self.scale_ns = float(scale_ns)
        if floor_ns is not None:
            self.floor_ns = int(floor_ns)

    def sample(self, rng, now_ns):
        return self._clamp(self.base_ns + rng.gamma(self.shape, self.scale_ns))


class SpikyLatency(ScalarLatency):
    """With probability ``spike_prob`` the base's delay is multiplied by
    a factor drawn uniformly from ``[2, spike_scale]``."""

    def __init__(self, base: LatencyModel, spike_prob: float, spike_scale: float = 6.0) -> None:
        if not 0.0 <= spike_prob <= 1.0:
            raise ValueError(f"spike_prob must be in [0,1], got {spike_prob}")
        if spike_scale < 2.0:
            raise ValueError(f"spike_scale must be >= 2, got {spike_scale}")
        self.base = base
        self.spike_prob = float(spike_prob)
        self.spike_scale = float(spike_scale)

    def sample(self, rng, now_ns):
        delay = self.base.sample(rng, now_ns)
        if self.spike_prob > 0.0 and rng.random() < self.spike_prob:
            delay = int(delay * rng.uniform(2.0, self.spike_scale))
        return self._clamp(delay)


class CompositeLatency(ScalarLatency):
    """Sum of independent components, drawn in order, floored once."""

    def __init__(self, components: Sequence[LatencyModel]) -> None:
        if not components:
            raise ValueError("components must be non-empty")
        self.components: List[LatencyModel] = list(components)

    def sample(self, rng, now_ns):
        return self._clamp(sum(c.sample(rng, now_ns) for c in self.components))


def composed(model: latency.CloudLinkLatency) -> CompositeLatency:
    """The scalar definition of a cloud link: its constant plus a spiky
    gamma jitter, neither term floored (spikes multiply queueing only)."""
    jitter = SpikyLatency(
        GammaLatency(0, model.jitter_shape, model.jitter_scale_ns, floor_ns=0),
        model.spike_prob,
        model.spike_scale,
    )
    jitter.floor_ns = 0
    return CompositeLatency([ConstantLatency(model.base_ns), jitter])


# ----------------------------------------------------------------------
# The oracle for repro.sim.latency
# ----------------------------------------------------------------------
def _clamp(value: float, floor_ns: int) -> int:
    return max(int(value), floor_ns)


def sample(model: LatencyModel, rng: np.random.Generator, now_ns: int) -> int:
    """One delay of ``model`` drawn by its scalar body."""
    kind = type(model)
    if kind is latency.CloudLinkLatency:
        return composed(model).sample(rng, now_ns)
    if kind is latency.GammaLatency:
        return GammaLatency(model.base_ns, model.shape, model.scale_ns).sample(rng, now_ns)
    if kind is latency.StragglerLatency:
        return _clamp(sample(model.base, rng, now_ns) * model.multiplier, model.floor_ns)
    if kind is latency.PeriodicInjectedDelay:
        return _clamp(sample(model.base, rng, now_ns) + model.extra_at(now_ns), model.floor_ns)
    assert isinstance(model, ScalarLatency), model
    return model.sample(rng, now_ns)


def sample_columns(model: LatencyModel, rng: np.random.Generator, times: Sequence[int]) -> list:
    """:func:`sample`'s scalar calls over ``times``, made in column order:
    a cloud link's every jitter, then every spike coin, then one factor
    per spike; a wrapper's arithmetic over its base's column."""
    kind = type(model)
    if kind is latency.CloudLinkLatency:
        jitter = [int(rng.gamma(model.jitter_shape, model.jitter_scale_ns)) for _ in times]
        if model.spike_prob > 0.0:
            spiked = [rng.random() < model.spike_prob for _ in times]
            for i, hit in enumerate(spiked):
                if hit:
                    jitter[i] = int(jitter[i] * rng.uniform(2.0, model.spike_scale))
        return [_clamp(model.base_ns + j, model.floor_ns) for j in jitter]
    if kind is latency.StragglerLatency:
        base = sample_columns(model.base, rng, times)
        return [_clamp(d * model.multiplier, model.floor_ns) for d in base]
    if kind is latency.PeriodicInjectedDelay:
        base = sample_columns(model.base, rng, times)
        return [_clamp(d + model.extra_at(t), model.floor_ns) for d, t in zip(base, times)]
    return [sample(model, rng, t) for t in times]
