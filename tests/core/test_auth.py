"""Tests for gateway authentication and API rate limiting."""

import pytest

from repro.core.auth import AuthRegistry, RateLimiter


class TestAuthRegistry:
    def test_verify_accepts_registered_token(self):
        auth = AuthRegistry()
        auth.register("p1", "secret")
        assert auth.verify("p1", "secret")

    def test_verify_rejects_wrong_token(self):
        auth = AuthRegistry()
        auth.register("p1", "secret")
        assert not auth.verify("p1", "wrong")

    def test_verify_rejects_unknown_participant(self):
        assert not AuthRegistry().verify("ghost", "anything")

    def test_rotation_invalidates_old_token(self):
        auth = AuthRegistry()
        auth.register("p1", "old")
        auth.register("p1", "new")
        assert not auth.verify("p1", "old")
        assert auth.verify("p1", "new")

    def test_revoke(self):
        auth = AuthRegistry()
        auth.register("p1", "t")
        assert auth.revoke("p1") is True
        assert not auth.verify("p1", "t")
        assert auth.revoke("p1") is False

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            AuthRegistry().register("p1", "")

    def test_is_known_and_len(self):
        auth = AuthRegistry()
        auth.register("p1", "t")
        assert auth.is_known("p1")
        assert not auth.is_known("p2")
        assert len(auth) == 1

    def test_mint_token_deterministic_and_distinct(self):
        a = AuthRegistry.mint_token("p1", "op-secret")
        b = AuthRegistry.mint_token("p1", "op-secret")
        c = AuthRegistry.mint_token("p2", "op-secret")
        d = AuthRegistry.mint_token("p1", "other-secret")
        assert a == b
        assert a != c and a != d


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRateLimiter:
    def test_burst_then_throttle(self):
        clock = FakeClock()
        limiter = RateLimiter(rate_per_s=1.0, burst=3, clock=clock)
        assert [limiter.allow("c") for _ in range(4)] == [True, True, True, False]

    def test_tokens_refill_at_rate(self):
        clock = FakeClock()
        limiter = RateLimiter(rate_per_s=2.0, burst=2, clock=clock)
        assert limiter.allow("c") and limiter.allow("c")
        assert not limiter.allow("c")
        clock.now += 0.5  # refills one token at 2/s
        assert limiter.allow("c")
        assert not limiter.allow("c")

    def test_bucket_never_exceeds_burst(self):
        clock = FakeClock()
        limiter = RateLimiter(rate_per_s=100.0, burst=2, clock=clock)
        clock.now += 1000.0  # a long idle period must not bank tokens
        results = [limiter.allow("c") for _ in range(3)]
        assert results == [True, True, False]

    def test_clients_are_independent(self):
        clock = FakeClock()
        limiter = RateLimiter(rate_per_s=1.0, burst=1, clock=clock)
        assert limiter.allow("alice")
        assert not limiter.allow("alice")
        assert limiter.allow("bob")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RateLimiter(rate_per_s=0.0, burst=1)
        with pytest.raises(ValueError):
            RateLimiter(rate_per_s=1.0, burst=0)

    def test_nan_rate_rejected(self):
        # NaN failed no "<= 0" test, and a NaN bucket never throttles.
        with pytest.raises(ValueError, match="rate_per_s"):
            RateLimiter(float("nan"), 2)
