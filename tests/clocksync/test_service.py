"""Tests for the clock synchronization service.

These exercise the headline §4 claim: Huygens-style sync holds gateway
clocks to sub-microsecond residuals over cloud links whose latencies
are hundreds of microseconds, while NTP through an asymmetric server
path is off by milliseconds.
"""

import numpy as np
import pytest

from repro.clocksync.huygens import EstimationError
from repro.clocksync.ntp import NtpEstimator
from repro.clocksync.service import ClockSyncService
from repro.sim.engine import Simulator
from repro.sim.latency import GammaLatency, cloud_link
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.timeunits import MILLISECOND, SECOND


def build(n_clients=2, drift=40_000, offset=2_000_000, **service_kwargs):
    sim = Simulator()
    rngs = RngRegistry(31)
    network = Network(sim, rngs)
    reference = network.add_host("engine")
    clients = []
    for i in range(n_clients):
        client = network.add_host(f"g{i:02d}", drift_ppb=drift * (1 if i % 2 else -1), offset_ns=offset)
        network.connect_bidirectional("engine", client.name, cloud_link(140, 0.7, 80.0, 0.002, 5))
        clients.append(client)
    service = ClockSyncService(sim, network, reference, clients, rngs, **service_kwargs)
    return sim, service, clients


class TestHuygensService:
    def test_warm_start_converges_immediately(self):
        _, service, clients = build()
        service.warm_start(3)
        for client in clients:
            assert abs(client.clock.error_ns()) < 5_000

    def test_steady_state_residual_sub_microsecond(self):
        """The paper's 159 ns p99 claim, at our fidelity: sub-us p99."""
        sim, service, clients = build(n_clients=1)
        service.warm_start(3)
        service.start()
        sim.run(until=10 * SECOND)
        errors = np.abs(service._state[clients[0].name].error_samples_ns[200:])
        assert np.percentile(errors, 99) < 1_000
        assert np.percentile(errors, 50) < 300

    def test_drift_is_learned(self):
        sim, service, clients = build(n_clients=1, drift=40_000)
        service.warm_start(3)
        service.start()
        sim.run(until=5 * SECOND)
        rate = service._state[clients[0].name].rate_ppb
        assert abs(rate - (-40_000)) < 2_000  # client 0 gets negative drift

    def test_all_clients_tracked_independently(self):
        sim, service, clients = build(n_clients=3)
        service.warm_start(2)
        service.start()
        sim.run(until=3 * SECOND)
        for client in clients:
            assert service.estimates_for(client.name)

    def test_down_client_is_skipped(self):
        sim, service, clients = build(n_clients=2)
        service.warm_start(2)
        service.start()
        clients[0].crash()
        before = len(service._state[clients[0].name].error_samples_ns)
        sim.run(until=2 * SECOND)
        after = len(service._state[clients[0].name].error_samples_ns)
        assert after == before
        assert len(service._state[clients[1].name].error_samples_ns) > 0

    def test_error_percentile_requires_samples(self):
        _, service, _ = build()
        with pytest.raises(ValueError):
            service.error_percentile_ns(99)

    def test_invalid_intervals_rejected(self):
        sim = Simulator()
        rngs = RngRegistry(1)
        network = Network(sim, rngs)
        ref = network.add_host("r")
        with pytest.raises(ValueError):
            ClockSyncService(sim, network, ref, [], rngs, probe_interval_ns=0)


class TestProbeWindow:
    """One probe path: every caller draws through ``_probe_window``."""

    @staticmethod
    def spy(service, monkeypatch):
        sizes = []
        draw = service._probe_window

        def counting(sender, receiver, model, times):
            sizes.append(len(times))
            return draw(sender, receiver, model, times)

        monkeypatch.setattr(service, "_probe_window", counting)
        return sizes

    def test_warm_start_draws_one_window_per_direction_client_and_round(self, monkeypatch):
        _, service, _ = build(n_clients=2)
        sizes = self.spy(service, monkeypatch)
        service.warm_start(3)
        # 100 ticks x a coded pair: the second probe of each pair is drawn
        # although only the first is kept -- 3 x 100 x 2 x 2 probes per client.
        assert sizes == [200] * (3 * 2 * 2)

    def test_probe_tick_is_a_window_of_one_tick(self, monkeypatch):
        sim, service, clients = build(n_clients=2)
        sizes = self.spy(service, monkeypatch)
        service.start()
        sim.run(until=25 * MILLISECOND)  # ticks at 0, 10, 20 ms
        assert sizes == [2] * (3 * 2 * 2)
        state = service._state[clients[0].name]
        assert [len(w) for w in state.forward] == [2, 2, 2]
        first, second = state.forward[0].sent_true.tolist()
        assert second - first == service.coded_spacing_ns
        # A round estimates from the first probe of each pair only.
        seen = []

        def record(forward, reverse, rate_hint_ppb):
            seen.append((forward.sent_true.tolist(), reverse.sent_true.tolist()))
            raise EstimationError("recorded")

        monkeypatch.setattr(service.estimator, "estimate", record)
        service._estimate_and_correct(clients[0], state)
        ticks = [0, 10 * MILLISECOND, 20 * MILLISECOND]
        assert seen == [(ticks, ticks)]

    def test_window_draw_order_is_the_documented_contract(self):
        _, service, clients = build(n_clients=1, drift=40_000)
        model = service._path_models(clients[0])[0]
        times = service._coded_times(service._window_ticks(-3 * SECOND))
        reference_rng = np.random.default_rng(5)
        service.rng = np.random.default_rng(5)
        window = service._probe_window(service.reference.clock, clients[0].clock, model, times)
        delays = model.sample_many(reference_rng, times)
        noise = reference_rng.integers(-25, 26, size=2 * len(times)).reshape(2, -1)
        ref_clock, cli_clock = service.reference.clock, clients[0].clock
        assert window.sent_true.tolist() == times.tolist()
        assert window.sent_local.tolist() == [
            ref_clock.raw_local(int(t)) + int(e) for t, e in zip(times, noise[0])
        ]
        assert window.recv_local.tolist() == [
            cli_clock.raw_local(int(t) + int(d)) + int(e) for t, d, e in zip(times, delays, noise[1])
        ]
        assert service.rng.bit_generator.state == reference_rng.bit_generator.state

    def test_noiseless_stamps_draw_no_noise(self):
        _, service, clients = build(n_clients=1, timestamp_noise_ns=0)
        model = service._path_models(clients[0])[0]
        times = service._window_ticks(0)
        reference_rng = np.random.default_rng(9)
        service.rng = np.random.default_rng(9)
        window = service._probe_window(service.reference.clock, clients[0].clock, model, times)
        model.sample_many(reference_rng, times)
        assert service.rng.bit_generator.state == reference_rng.bit_generator.state
        assert window.sent_local.tolist() == times.tolist()  # reference clock: no drift, no offset

    def test_round_without_probes_is_a_failed_round(self):
        _, service, clients = build(n_clients=1)
        state = service._state[clients[0].name]
        service._estimate_and_correct(clients[0], state)
        assert state.failed_rounds == 1 and not state.estimates


class TestNtpService:
    def test_ntp_offsets_are_milliseconds(self):
        """Paper footnote 3: ~10 ms offsets make NTP unusable."""
        sim, service, clients = build(
            n_clients=1,
            estimator=NtpEstimator(),
            path_override=(
                GammaLatency(2 * MILLISECOND, 2.0, 2 * MILLISECOND),
                GammaLatency(2 * MILLISECOND, 2.0, 12 * MILLISECOND),
            ),
        )
        service.warm_start(2)
        service.start()
        sim.run(until=10 * SECOND)
        errors = np.abs(service._state[clients[0].name].error_samples_ns)
        # Milliseconds, not nanoseconds: 4+ orders of magnitude worse
        # than Huygens on the same testbed.
        assert np.percentile(errors, 50) > 1 * MILLISECOND
        assert np.percentile(errors, 99) < 100 * MILLISECOND
