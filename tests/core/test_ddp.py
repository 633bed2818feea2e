"""Tests for the Dynamic Delay Parameters controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ddp import DdpController


def controller(**overrides):
    defaults = dict(
        target_ratio=0.01,
        initial_delay_ns=100_000,
        window=100,
        step_ns=5_000,
        update_every_samples=10,
    )
    defaults.update(overrides)
    return DdpController(**defaults)


class TestAdjustment:
    def test_no_adjustment_until_window_full(self):
        ddp = controller(window=100)
        for _ in range(99):
            assert ddp.on_sample(True) is None
        assert ddp.delay_ns == 100_000

    def test_above_target_increases_delay(self):
        ddp = controller(target_ratio=0.01)
        for _ in range(100):
            ddp.on_sample(True)
        assert ddp.delay_ns == 100_000 + 5_000

    def test_below_target_decreases_delay(self):
        ddp = controller(target_ratio=0.5)
        for _ in range(100):
            ddp.on_sample(False)
        assert ddp.delay_ns == 100_000 - 5_000

    def test_ratio_at_target_decreases_delay(self):
        # Paper §3: DDP raises the delay only while the window's ratio is
        # *above* the target; a full window sitting exactly on it steps down.
        ddp = controller(target_ratio=0.25, window=100, update_every_samples=100)
        for index in range(100):
            ddp.on_sample(index % 4 == 0)
        assert ddp.current_ratio() == 0.25
        assert ddp.adjustments == 1
        assert ddp.delay_ns == 100_000 - 5_000

    def test_update_spacing(self):
        ddp = controller(update_every_samples=10)
        for _ in range(100):
            ddp.on_sample(True)
        assert ddp.adjustments == 1
        for _ in range(10):
            ddp.on_sample(True)
        assert ddp.adjustments == 2

    def test_step_is_paper_5us_default(self):
        ddp = DdpController(target_ratio=0.01)
        assert ddp.step_ns == 5_000
        assert ddp.window == 1000

    def test_clamped_at_min(self):
        ddp = controller(initial_delay_ns=2_000, min_delay_ns=0, target_ratio=0.9)
        for _ in range(200):
            ddp.on_sample(False)
        assert ddp.delay_ns == 0

    def test_clamped_at_max(self):
        ddp = controller(initial_delay_ns=98_000, max_delay_ns=100_000, target_ratio=0.001)
        for _ in range(200):
            ddp.on_sample(True)
        assert ddp.delay_ns == 100_000

    def test_apply_callback_invoked(self):
        applied = []
        ddp = controller(apply=applied.append)
        for _ in range(100):
            ddp.on_sample(True)
        assert applied == [105_000]

    def test_delay_trace_records_changes(self):
        ddp = controller()
        for _ in range(120):
            ddp.on_sample(True)
        assert ddp.delay_trace[0] == (100, 105_000)


class TestRollingWindow:
    def test_ratio_over_window(self):
        ddp = controller(window=10)
        for unfair in [True] * 3 + [False] * 7:
            ddp.on_sample(unfair)
        assert ddp.current_ratio() == pytest.approx(0.3)

    def test_old_samples_roll_off(self):
        ddp = controller(window=10)
        for _ in range(10):
            ddp.on_sample(True)
        for _ in range(10):
            ddp.on_sample(False)
        assert ddp.current_ratio() == 0.0

    def test_empty_window_ratio_zero(self):
        assert controller().current_ratio() == 0.0


class TestValidation:
    @pytest.mark.parametrize("target", [-0.1, 1.5])
    def test_bad_target(self, target):
        with pytest.raises(ValueError):
            controller(target_ratio=target)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            controller(window=0)

    def test_initial_outside_clamp(self):
        with pytest.raises(ValueError):
            controller(initial_delay_ns=-5)


class TestClosedLoop:
    def _simulate(self, target, gain=1e-7, initial=0, rounds=30_000, seed=3):
        """A toy plant where P(unfair) falls linearly with delay."""
        import numpy as np

        rng = np.random.default_rng(seed)
        ddp = controller(
            target_ratio=target,
            initial_delay_ns=initial,
            window=500,
            update_every_samples=25,
        )
        observed = []
        for _ in range(rounds):
            p_unfair = max(0.0, 0.2 - gain * ddp.delay_ns)
            unfair = bool(rng.random() < p_unfair)
            observed.append(unfair)
            ddp.on_sample(unfair)
        return ddp, observed

    @pytest.mark.parametrize("target", [0.01, 0.05])
    def test_converges_to_target(self, target):
        """Fig. 4's headline: achieved unfairness lands near the target."""
        ddp, observed = self._simulate(target)
        steady = observed[len(observed) // 2 :]
        achieved = sum(steady) / len(steady)
        assert achieved == pytest.approx(target, rel=0.5)

    def test_higher_target_means_lower_delay(self):
        """The latency-fairness trade-off: looser target, less delay."""
        strict, _ = self._simulate(0.01)
        loose, _ = self._simulate(0.1)
        assert loose.delay_ns < strict.delay_ns


@given(samples=st.lists(st.booleans(), min_size=0, max_size=500))
@settings(max_examples=100, deadline=None)
def test_window_count_invariant(samples):
    """The incremental unfair-in-window counter always matches a
    recount of the deque."""
    ddp = controller(window=50)
    for s in samples:
        ddp.on_sample(s)
        assert ddp._unfair_in_window == sum(ddp._samples)
        assert 0 <= ddp.current_ratio() <= 1
