"""Shared fixtures for the CloudEx reproduction test suite."""

from __future__ import annotations

import signal

import pytest

from repro.core.cluster import CloudExCluster
from repro.core.config import CloudExConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


#: Seconds any one test may run, its fixtures' setup included (the
#: slowest takes ~2 s on a 2-core box): a test that hangs -- say, an
#: event loop that never advances -- fails here instead of stalling the
#: whole suite.
TEST_TIME_LIMIT_S = 120


def _expire(signum, frame):
    raise TimeoutError(f"test ran longer than TEST_TIME_LIMIT_S={TEST_TIME_LIMIT_S} s")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # Around the whole protocol rather than in an autouse fixture: a
    # class- or module-scoped fixture is set up before any function
    # fixture, and a hang there is the one a fixture would miss.
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(1234)


def small_config(**overrides) -> CloudExConfig:
    """A fast, small-but-complete cluster configuration for tests."""
    defaults = dict(
        seed=42,
        n_participants=6,
        n_gateways=3,
        n_shards=1,
        n_symbols=8,
        orders_per_participant_per_s=120.0,
        subscriptions_per_participant=2,
        snapshot_interval_ms=50.0,
        sequencer_delay_us=400.0,
        holdrelease_delay_us=900.0,
        market_order_fraction=0.05,
        cancel_fraction=0.05,
    )
    defaults.update(overrides)
    return CloudExConfig(**defaults)


def record_deliveries(participant, kind: str, record=lambda msg: msg) -> list:
    """``record(msg)`` for each ``kind`` message ("confirmation", "trade"
    or "market_data") ``participant`` handles from now on, in order: its
    handler is wrapped, and runs first."""
    seen = []
    name = f"_on_{kind}"
    handle = getattr(participant, name)

    def spy(msg):
        handle(msg)
        seen.append(record(msg))

    setattr(participant, name, spy)
    return seen


@pytest.fixture
def small_cluster() -> CloudExCluster:
    """A small cluster, workload attached, not yet run."""
    cluster = CloudExCluster(small_config())
    cluster.add_default_workload()
    return cluster
