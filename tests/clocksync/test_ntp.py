"""Tests for the NTP baseline estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocksync.huygens import EstimationError
from repro.clocksync.ntp import NtpEstimator
from tests.clocksync.reference import Probe, columns, list_ntp


def exchange(theta, d_fwd, d_rev, t=0):
    forward = Probe(sent_local=t, recv_local=t + d_fwd + theta, sent_true=t)
    reverse = Probe(sent_local=t + theta, recv_local=t + d_rev, sent_true=t)
    return forward, reverse


def estimate_of(estimator, forward, reverse, **kwargs):
    """Estimate from hand-made probes, checked against the per-probe loop."""
    estimate = estimator.estimate(columns(forward), columns(reverse), **kwargs)
    assert estimate == list_ntp(forward, reverse, estimator.samples_to_average)
    assert type(estimate.offset_ns) is int and type(estimate.ref_raw_ns) is int
    return estimate


class TestNtpEstimator:
    def test_symmetric_path_is_exact(self):
        forward, reverse = exchange(theta=123_456, d_fwd=5_000_000, d_rev=5_000_000)
        estimate = estimate_of(NtpEstimator(), [forward], [reverse])
        assert estimate.offset_ns == 123_456

    def test_asymmetric_path_error_is_half_the_asymmetry(self):
        forward, reverse = exchange(theta=0, d_fwd=2_000_000, d_rev=12_000_000)
        estimate = estimate_of(NtpEstimator(), [forward], [reverse])
        assert estimate.offset_ns == (2_000_000 - 12_000_000) // 2

    def test_uses_latest_sample(self):
        old_f, old_r = exchange(theta=1_000, d_fwd=100, d_rev=100, t=0)
        new_f, new_r = exchange(theta=9_000, d_fwd=100, d_rev=100, t=1_000_000)
        estimate = estimate_of(NtpEstimator(), [old_f, new_f], [old_r, new_r])
        assert estimate.offset_ns == 9_000

    def test_averaging_window(self):
        f1, r1 = exchange(theta=1_000, d_fwd=100, d_rev=100, t=0)
        f2, r2 = exchange(theta=3_000, d_fwd=100, d_rev=100, t=1_000_000)
        estimate = estimate_of(NtpEstimator(samples_to_average=2), [f1, f2], [r1, r2])
        assert estimate.offset_ns == 2_000

    def test_no_rate_estimation(self):
        forward, reverse = exchange(theta=0, d_fwd=100, d_rev=100)
        assert estimate_of(NtpEstimator(), [forward], [reverse]).rate_ppb == 0

    def test_rate_hint_ignored(self):
        forward, reverse = exchange(theta=500, d_fwd=100, d_rev=100)
        estimate = estimate_of(NtpEstimator(), [forward], [reverse], rate_hint_ppb=99_999)
        assert estimate.offset_ns == 500
        assert estimate.rate_ppb == 0

    def test_empty_raises(self):
        with pytest.raises(EstimationError):
            NtpEstimator().estimate(columns([]), columns([]))
        forward, reverse = exchange(theta=0, d_fwd=100, d_rev=100)
        with pytest.raises(EstimationError):
            NtpEstimator().estimate(columns([forward]), columns([]))

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            NtpEstimator(samples_to_average=0)

    @settings(max_examples=200, deadline=None)
    @given(
        forward=st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(-10**8, 10**8)), min_size=1, max_size=12),
        reverse=st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(-10**8, 10**8)), min_size=1, max_size=12),
        samples_to_average=st.integers(1, 16),
    )
    def test_columns_estimate_equals_the_list_estimate(self, forward, reverse, samples_to_average):
        """Unequal direction lengths, windows longer than either, odd sums."""
        forward = [Probe(sent, sent + diff, 0) for sent, diff in forward]
        reverse = [Probe(sent, sent + diff, 0) for sent, diff in reverse]
        estimate_of(NtpEstimator(samples_to_average), forward, reverse)
