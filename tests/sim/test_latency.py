"""Tests for latency models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.latency import (
    CloudLinkLatency,
    CompositeLatency,
    ConstantLatency,
    GammaLatency,
    LognormalLatency,
    PeriodicInjectedDelay,
    SpikyLatency,
    StragglerLatency,
    UniformLatency,
    cloud_link,
)
from repro.sim.rng import RngRegistry
from repro.sim.timeunits import MICROSECOND, SECOND


@pytest.fixture
def rng():
    return RngRegistry(99).stream("latency-tests")


def draws(model, rng, n=5000, now=0):
    return np.array([model.sample(rng, now) for _ in range(n)])


class TestConstant:
    def test_always_same(self, rng):
        model = ConstantLatency(42_000)
        assert {model.sample(rng, 0) for _ in range(10)} == {42_000}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_zero_allowed(self, rng):
        assert ConstantLatency(0).sample(rng, 0) == 0


class TestUniform:
    def test_within_bounds(self, rng):
        samples = draws(UniformLatency(10_000, 20_000), rng)
        assert samples.min() >= 10_000
        assert samples.max() <= 20_000

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformLatency(20, 10)

    def test_sub_floor_bounds_respected(self, rng):
        # Regression: UniformLatency(0, 500) used to clamp every draw
        # up to the global 1_000 ns floor, silently exceeding hi_ns.
        samples = draws(UniformLatency(0, 500), rng)
        assert samples.min() >= 0
        assert samples.max() <= 500
        assert len(set(samples.tolist())) > 1  # actually varies

    def test_default_floor_still_applies_above_it(self, rng):
        # A range above the floor keeps the default floor untouched.
        model = UniformLatency(10_000, 20_000)
        assert model.floor_ns == 1_000


class TestLognormal:
    def test_median_is_calibrated(self, rng):
        model = LognormalLatency(100_000, 0.3)
        samples = draws(model, rng, n=20000)
        assert abs(np.median(samples) - 100_000) / 100_000 < 0.05

    def test_zero_sigma_is_constant(self, rng):
        samples = draws(LognormalLatency(50_000, 0.0), rng, n=100)
        assert (samples == 50_000).all()

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LognormalLatency(0, 0.3)
        with pytest.raises(ValueError):
            LognormalLatency(100, -1.0)


class TestGamma:
    def test_mean_matches(self, rng):
        model = GammaLatency(10_000, 2.0, 5_000)
        samples = draws(model, rng, n=30000)
        assert abs(samples.mean() - 20_000) / 20_000 < 0.05

    def test_floor_override_allows_near_zero(self, rng):
        model = GammaLatency(0, 0.5, 1_000, floor_ns=0)
        assert draws(model, rng).min() < 1_000

    def test_default_floor_applies(self, rng):
        model = GammaLatency(0, 0.5, 10)
        assert draws(model, rng).min() >= model.floor_ns

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GammaLatency(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            GammaLatency(0, 0.0, 1.0)


class TestSpiky:
    def test_no_spikes_matches_base(self, rng):
        base = ConstantLatency(10_000)
        model = SpikyLatency(base, 0.0)
        assert (draws(model, rng, n=100) == 10_000).all()

    def test_spikes_inflate_some_samples(self, rng):
        model = SpikyLatency(ConstantLatency(10_000), 0.5, 4.0)
        samples = draws(model, rng)
        assert (samples > 10_000).any()
        assert (samples == 10_000).any()
        assert samples.max() <= 40_000

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SpikyLatency(ConstantLatency(1), 2.0)
        with pytest.raises(ValueError):
            SpikyLatency(ConstantLatency(1), 0.1, 1.5)


class TestStraggler:
    def test_multiplies_base(self, rng):
        model = StragglerLatency(ConstantLatency(10_000), 3.0)
        assert model.sample(rng, 0) == 30_000

    def test_multiplier_below_one_rejected(self):
        with pytest.raises(ValueError):
            StragglerLatency(ConstantLatency(1), 0.5)


class TestPeriodicInjection:
    def test_phase_schedule(self, rng):
        model = PeriodicInjectedDelay(
            ConstantLatency(10_000), [0, 400_000, 200_000], 6 * SECOND
        )
        assert model.extra_at(0) == 0
        assert model.extra_at(6 * SECOND) == 400_000
        assert model.extra_at(12 * SECOND) == 200_000
        assert model.extra_at(18 * SECOND) == 0  # cycles

    def test_sample_includes_extra(self, rng):
        model = PeriodicInjectedDelay(ConstantLatency(10_000), [0, 400_000], SECOND)
        assert model.sample(rng, 0) == 10_000
        assert model.sample(rng, SECOND) == 410_000

    def test_empty_phases_rejected(self):
        with pytest.raises(ValueError):
            PeriodicInjectedDelay(ConstantLatency(1), [], SECOND)


class TestComposite:
    def test_sums_components(self, rng):
        model = CompositeLatency([ConstantLatency(1_000), ConstantLatency(2_000)])
        assert model.sample(rng, 0) == 3_000

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeLatency([])


class TestCloudLink:
    def test_floor_is_base(self, rng):
        model = cloud_link(100.0, spike_prob=0.0)
        samples = draws(model, rng)
        assert samples.min() >= 100 * MICROSECOND

    def test_mass_near_floor_exists(self, rng):
        """Some probes traverse nearly un-queued -- the property the
        Huygens minimum envelope depends on."""
        model = cloud_link(100.0, jitter_shape=0.7, jitter_scale_us=30.0, spike_prob=0.0)
        samples = draws(model, rng, n=20000)
        near_floor = (samples < 101 * MICROSECOND).mean()
        assert near_floor > 0.005

    def test_has_heavy_tail(self, rng):
        model = cloud_link(100.0, jitter_scale_us=60.0, spike_prob=0.01, spike_scale=5.0)
        samples = draws(model, rng, n=50000)
        assert np.percentile(samples, 99.9) > 2.5 * np.median(samples)

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            cloud_link(0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        base_us=st.floats(0.001, 1000.0),
        jitter_shape=st.floats(0.05, 5.0),
        jitter_scale_us=st.floats(0.001, 500.0),
        spike_prob=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True)),
        spike_scale=st.floats(2.0, 20.0, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fused_model_is_the_composed_one_draw_for_draw(
        self, base_us, jitter_shape, jitter_scale_us, spike_prob, spike_scale, seed
    ):
        """The fast path under every link, pinned to the models it was
        fused from: same samples, same RNG draws in the same order."""
        fused = cloud_link(base_us, jitter_shape, jitter_scale_us, spike_prob, spike_scale)
        assert type(fused) is CloudLinkLatency
        jitter = SpikyLatency(
            GammaLatency(0, jitter_shape, jitter_scale_us * MICROSECOND, floor_ns=0),
            spike_prob,
            spike_scale,
        )
        jitter.floor_ns = 0  # spikes multiply queueing only; the floor applies to the sum
        composed = CompositeLatency([ConstantLatency(int(base_us * MICROSECOND)), jitter])
        fused_rng, composed_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for now in range(200):
            assert fused.sample(fused_rng, now) == composed.sample(composed_rng, now)
        assert fused_rng.bit_generator.state == composed_rng.bit_generator.state
