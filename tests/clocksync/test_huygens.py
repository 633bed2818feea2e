"""Tests for the Huygens-style estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocksync.huygens import EstimationError, HuygensEstimator, SyncEstimate
from tests.clocksync.reference import Probe, columns, list_huygens

_BILLION = 1_000_000_000


def synth_probe_lists(
    theta0=5_000,
    rate_ppb=0,
    floor=100_000,
    n=100,
    spacing=10_000_000,
    queueing=None,
    seed=7,
):
    """Synthesize forward and reverse probes for a client whose clock
    difference is ``theta(t) = theta0 + rate * t`` (hand-made, one
    ``Probe`` each; :func:`synth_probes` hands them over as columns)."""
    rng = np.random.default_rng(seed)
    forward, reverse = [], []
    for i in range(n):
        t = i * spacing
        theta = theta0 + (rate_ppb * t) // _BILLION
        d_fwd = floor + (int(queueing(rng)) if queueing else 0)
        d_rev = floor + (int(queueing(rng)) if queueing else 0)
        # forward: ref sends at ref-time t (x = t), client receives.
        forward.append(
            Probe(sent_local=t, recv_local=t + d_fwd + theta, sent_true=t)
        )
        # reverse: client sends at client raw t + theta.
        reverse.append(
            Probe(sent_local=t + theta, recv_local=t + theta + d_rev - theta, sent_true=t)
        )
    return forward, reverse


def synth_probes(**kwargs):
    forward, reverse = synth_probe_lists(**kwargs)
    return columns(forward), columns(reverse)


class TestEstimate:
    def test_pure_offset_recovered_exactly(self):
        forward, reverse = synth_probes(theta0=5_000)
        estimate = HuygensEstimator().estimate(forward, reverse)
        assert abs(estimate.offset_ns - 5_000) <= 1

    def test_negative_offset(self):
        forward, reverse = synth_probes(theta0=-12_345)
        estimate = HuygensEstimator().estimate(forward, reverse)
        assert abs(estimate.offset_ns - (-12_345)) <= 1

    def test_queueing_noise_filtered_by_envelope(self):
        queueing = lambda rng: rng.gamma(0.7, 30_000)
        forward, reverse = synth_probes(theta0=7_000, queueing=queueing)
        estimate = HuygensEstimator().estimate(forward, reverse)
        # Error bounded by the envelope sharpness, far below the mean
        # queueing delay (~21 us).
        assert abs(estimate.offset_ns - 7_000) < 3_000

    def test_detrending_with_correct_rate_hint(self):
        forward, reverse = synth_probes(theta0=1_000, rate_ppb=50_000)
        estimate = HuygensEstimator().estimate(forward, reverse, rate_hint_ppb=50_000)
        mid = estimate.ref_raw_ns
        expected = 1_000 + (50_000 * mid) // _BILLION
        assert abs(estimate.offset_ns - expected) < 100

    def test_drifting_clock_without_hint_is_biased_but_centered(self):
        forward, reverse = synth_probes(theta0=0, rate_ppb=50_000)
        estimate = HuygensEstimator().estimate(forward, reverse, rate_hint_ppb=0)
        # With symmetric envelopes the un-detrended minima straddle the
        # midpoint: fwd favours early samples, rev late ones, and the
        # biases largely cancel.
        mid = estimate.ref_raw_ns
        expected = (50_000 * mid) // _BILLION
        assert abs(estimate.offset_ns - expected) < 30_000

    def test_too_few_probes_raises(self):
        forward, reverse = synth_probes(n=2)
        with pytest.raises(EstimationError):
            HuygensEstimator(min_samples=3).estimate(forward, reverse)

    def test_empty_raises(self):
        with pytest.raises(EstimationError):
            HuygensEstimator().estimate(columns([]), columns([]))

    def test_samples_used_counts_both_directions(self):
        forward, reverse = synth_probes(n=10)
        estimate = HuygensEstimator().estimate(forward, reverse)
        assert estimate.samples_used == 20

    def test_invalid_min_samples(self):
        with pytest.raises(ValueError):
            HuygensEstimator(min_samples=0)


    def test_estimate_fields_are_python_ints(self):
        # A numpy scalar installed on a HostClock would leak into every stamp.
        estimate = HuygensEstimator().estimate(*synth_probes(), rate_hint_ppb=40_000)
        assert all(type(v) is int for v in (estimate.offset_ns, estimate.ref_raw_ns, estimate.rate_ppb))

    def test_a_span_int64_cannot_detrend_is_refused(self):
        forward, reverse = synth_probes(n=3, spacing=10**16)
        with pytest.raises(OverflowError):
            HuygensEstimator().estimate(forward, reverse, rate_hint_ppb=1_000_000)

    @pytest.mark.parametrize(
        "kwargs, rate_hint_ppb",
        [
            (dict(theta0=5_000), 0),
            (dict(theta0=-12_345), 0),
            (dict(theta0=7_000, queueing=lambda rng: rng.gamma(0.7, 30_000)), 0),
            (dict(theta0=1_000, rate_ppb=50_000), 50_000),
            (dict(theta0=0, rate_ppb=50_000), 0),
            (dict(n=10), -3),
        ],
    )
    def test_hand_made_probes_give_the_list_estimators_estimate(self, kwargs, rate_hint_ppb):
        forward, reverse = synth_probe_lists(**kwargs)
        estimate = HuygensEstimator().estimate(columns(forward), columns(reverse), rate_hint_ppb)
        assert estimate == list_huygens(forward, reverse, rate_hint_ppb)

    @settings(max_examples=200, deadline=None)
    @given(
        forward=st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(-10**7, 10**7)), min_size=3, max_size=30),
        reverse=st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(-10**7, 10**7)), min_size=3, max_size=30),
        rate_hint_ppb=st.integers(-1_000_000, 1_000_000),
    )
    def test_columns_estimate_equals_the_list_estimate(self, forward, reverse, rate_hint_ppb):
        """Negative stamps, negative differences, floor division of
        negative detrend terms: value for value the per-probe loop."""
        forward = [Probe(sent, sent + diff, 0) for sent, diff in forward]
        reverse = [Probe(sent, sent + diff, 0) for sent, diff in reverse]
        estimate = HuygensEstimator().estimate(columns(forward), columns(reverse), rate_hint_ppb)
        assert estimate == list_huygens(forward, reverse, rate_hint_ppb)


class TestSyncEstimate:
    def test_theta_at_extrapolates(self):
        estimate = SyncEstimate(offset_ns=100, rate_ppb=1_000, ref_raw_ns=0, samples_used=1)
        assert estimate.theta_at(_BILLION) == 1_100

    def test_theta_at_ref_is_offset(self):
        estimate = SyncEstimate(offset_ns=77, rate_ppb=123, ref_raw_ns=999, samples_used=1)
        assert estimate.theta_at(999) == 77
