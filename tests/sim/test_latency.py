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
    LatencyModel,
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


# ----------------------------------------------------------------------
# sample_many: the bulk path pinned to the scalar one
# ----------------------------------------------------------------------
def _cloud_link_columns(model, rng, times):
    """``CloudLinkLatency.sample``'s scalar calls, made column by column:
    every jitter, then every spike coin, then one factor per spike."""
    jitter = [int(rng.gamma(model.jitter_shape, model.jitter_scale_ns)) for _ in times]
    if model.spike_prob > 0.0:
        spiked = [rng.random() < model.spike_prob for _ in times]
        for i, hit in enumerate(spiked):
            if hit:
                jitter[i] = int(jitter[i] * rng.uniform(2.0, model.spike_scale))
    return [max(model.base_ns + j, model.floor_ns) for j in jitter]


def _reference_columns(model, rng, times):
    """The scalar arithmetic of each vectorised model over its base's column."""
    if type(model) is CloudLinkLatency:
        return _cloud_link_columns(model, rng, times)
    if type(model) is GammaLatency:
        return [model._clamp(model.base_ns + rng.gamma(model.shape, model.scale_ns)) for _ in times]
    base = _reference_columns(model.base, rng, times)
    if type(model) is StragglerLatency:
        return [model._clamp(d * model.multiplier) for d in base]
    assert type(model) is PeriodicInjectedDelay
    return [model._clamp(d + model.extra_at(t)) for d, t in zip(base, times)]


_link_models = st.builds(
    cloud_link,
    base_us=st.floats(0.001, 1000.0),
    jitter_shape=st.floats(0.05, 5.0),
    jitter_scale_us=st.floats(0.001, 500.0),
    spike_prob=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True)),
    spike_scale=st.floats(2.0, 20.0, exclude_min=True),
)
_gamma_models = st.builds(
    GammaLatency,
    base_ns=st.integers(0, 5_000_000),
    shape=st.floats(0.05, 5.0),
    scale_ns=st.floats(1.0, 12_000_000.0),
    floor_ns=st.one_of(st.none(), st.integers(0, 10_000)),
)
_base_models = st.one_of(_link_models, _gamma_models)
_vectorised_models = st.one_of(
    _base_models,
    st.builds(StragglerLatency, _base_models, st.floats(1.0, 8.0)),
    st.builds(
        PeriodicInjectedDelay,
        _base_models,
        st.lists(st.integers(0, 400_000), min_size=1, max_size=4),
        st.integers(1, 6 * SECOND),
    ),
    st.builds(
        StragglerLatency,
        st.builds(PeriodicInjectedDelay, _link_models, st.just([0, 400_000, 200_000]), st.just(SECOND)),
        st.floats(1.0, 8.0),
    ),
)
# warm start places windows in the (virtual) past: negative times too.
_times = st.lists(st.integers(-20 * SECOND, 20 * SECOND), min_size=0, max_size=40)


class TestSampleMany:
    @settings(max_examples=200, deadline=None)
    @given(model=_vectorised_models, times=_times, seed=st.integers(0, 2**32 - 1))
    def test_bulk_draw_is_the_scalar_calls_in_column_order(self, model, times, seed):
        bulk_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = model.sample_many(bulk_rng, np.array(times, dtype=np.int64))
        assert drawn.dtype == np.int64
        assert drawn.tolist() == _reference_columns(model, scalar_rng, times)
        assert bulk_rng.bit_generator.state == scalar_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(
        model=_vectorised_models,
        times=st.lists(st.integers(-20 * SECOND, 20 * SECOND), min_size=1, max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_window_of_one_is_sample(self, model, times, seed):
        bulk_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for now in times:
            drawn = model.sample_many(bulk_rng, np.array([now], dtype=np.int64))
            assert drawn.tolist() == [model.sample(scalar_rng, now)]
        assert bulk_rng.bit_generator.state == scalar_rng.bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(times=_times, seed=st.integers(0, 2**32 - 1))
    def test_base_class_default_loops_sample(self, times, seed):
        """Models nobody vectorised (here: spiky lognormal) get the loop."""
        model = SpikyLatency(LognormalLatency(100_000, 0.4), 0.3, 4.0)
        assert type(model).sample_many is LatencyModel.sample_many
        bulk_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = model.sample_many(bulk_rng, np.array(times, dtype=np.int64))
        assert drawn.dtype == np.int64
        assert drawn.tolist() == [model.sample(scalar_rng, now) for now in times]
        assert bulk_rng.bit_generator.state == scalar_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(model=_vectorised_models, times=_times, seed=st.integers(0, 2**32 - 1))
    def test_split_is_the_same_block_with_the_timed_part_applied_per_entry(self, model, times, seed):
        """What a link does (DESIGN §4.11): ``drawn`` never sees the times."""
        split_rng, bulk_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn, finish = model.split()
        block = drawn.sample_many(split_rng, np.zeros(len(times), dtype=np.int64)).tolist()
        if finish is not None:
            block = [finish(delay, now) for delay, now in zip(block, times)]
        assert block == model.sample_many(bulk_rng, np.array(times, dtype=np.int64)).tolist()
        assert split_rng.bit_generator.state == bulk_rng.bit_generator.state

    def test_only_an_injected_schedule_leaves_a_timed_part(self):
        link = cloud_link(80.0)
        injected = PeriodicInjectedDelay(link, [0, 400_000], SECOND)
        for model in (link, GammaLatency(0, 0.7, 30_000.0), StragglerLatency(link, 3.0)):
            assert model.split() == (model, None)
        for model in (injected, StragglerLatency(injected, 3.0)):
            drawn, finish = model.split()
            assert drawn is link and finish is not None

    def test_periodic_injection_picks_the_phase_per_entry(self, rng):
        model = PeriodicInjectedDelay(ConstantLatency(10_000), [0, 400_000, 200_000], SECOND)
        times = np.array([-1, 0, SECOND - 1, SECOND, 2 * SECOND, 3 * SECOND], dtype=np.int64)
        assert model.sample_many(rng, times).tolist() == [
            210_000, 10_000, 10_000, 410_000, 210_000, 10_000
        ]
