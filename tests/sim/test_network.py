"""Tests for hosts, links, and message delivery."""

import numpy as np
import pytest

from repro.sim.engine import Actor, Simulator
from repro.sim.latency import PeriodicInjectedDelay, StragglerLatency, cloud_link
from repro.sim.network import Network
from repro.sim.rng import DRAW_BLOCK, RngRegistry
from repro.sim.timeunits import SECOND
from tests.sim import reference
from tests.sim.reference import ConstantLatency, UniformLatency


class Recorder(Actor):
    """Collects (payload, sender, time) tuples."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, msg, sender):
        self.received.append((msg, sender, self.sim.now))


@pytest.fixture
def net():
    sim = Simulator()
    network = Network(sim, RngRegistry(5))
    return sim, network


def wire(sim, network, a="a", b="b", latency=None):
    network.add_host(a)
    network.add_host(b)
    network.connect(a, b, latency or ConstantLatency(1_000))
    recorder = Recorder(sim, b)
    network.host(b).bind(recorder)
    return recorder


class TestDelivery:
    def test_message_arrives_after_latency(self, net):
        sim, network = net
        recorder = wire(sim, network)
        network.send("a", "b", "hello")
        sim.run()
        assert recorder.received == [("hello", "a", 1_000)]

    def test_fifo_link_preserves_order(self, net):
        sim, network = net
        recorder = wire(sim, network, latency=UniformLatency(1_000, 50_000))
        for i in range(50):
            network.send("a", "b", i)
        sim.run()
        assert [msg for msg, _, _ in recorder.received] == list(range(50))

    def test_non_fifo_link_can_reorder(self, net):
        sim, network = net
        network.add_host("a")
        network.add_host("b")
        network.connect("a", "b", UniformLatency(1_000, 100_000), fifo=False)
        recorder = Recorder(sim, "b")
        network.host("b").bind(recorder)
        for i in range(100):
            network.send("a", "b", i)
        sim.run()
        order = [msg for msg, _, _ in recorder.received]
        assert sorted(order) == list(range(100))
        assert order != list(range(100))


class TestCrash:
    def test_messages_to_down_host_are_dropped(self, net):
        sim, network = net
        recorder = wire(sim, network)
        network.host("b").crash()
        network.send("a", "b", "lost")
        sim.run()
        assert recorder.received == []
        assert network.host("b").dropped_while_down == 1

    def test_restart_resumes_delivery(self, net):
        sim, network = net
        recorder = wire(sim, network)
        network.host("b").crash()
        network.send("a", "b", "lost")
        sim.run()
        network.host("b").restart()
        network.send("a", "b", "found")
        sim.run()
        assert [m for m, _, _ in recorder.received] == ["found"]

    def test_in_flight_message_to_crashing_host_dropped(self, net):
        sim, network = net
        recorder = wire(sim, network)
        network.send("a", "b", "in-flight")
        sim.schedule(500, network.host("b").crash)  # before delivery at 1000
        sim.run()
        assert recorder.received == []

    def test_sent_while_down_stays_lost_after_restart(self, net):
        """The pinned crash semantics: a message dropped while the host
        was down is never requeued -- restart() resumes delivery only
        for messages sent afterwards."""
        sim, network = net
        recorder = wire(sim, network)
        network.host("b").crash()
        network.send("a", "b", "lost")
        sim.run()  # past the delivery instant: dropped by the up check
        network.host("b").restart()
        sim.run()
        assert recorder.received == []
        assert network.host("b").dropped_while_down == 1

    def test_restart_before_arrival_still_delivers(self, net):
        """Drops happen at the delivery instant, not at send time: a
        host that bounces within the flight time receives the message."""
        sim, network = net
        recorder = wire(sim, network)  # constant 1000 ns latency
        network.send("a", "b", "in-flight")
        sim.schedule(100, network.host("b").crash)
        sim.schedule(500, network.host("b").restart)
        sim.run()
        assert [m for m, _, _ in recorder.received] == ["in-flight"]
        assert network.host("b").dropped_while_down == 0

    def test_down_host_sends_dropped_at_source(self, net):
        sim, network = net
        recorder = wire(sim, network)
        network.host("a").crash()
        network.send("a", "b", "never-leaves")
        sim.run()
        network.host("a").restart()
        sim.run()
        assert recorder.received == []
        assert network.host("a").dropped_sends_while_down == 1
        # The drop happened at the source, not at the destination.
        assert network.host("b").dropped_while_down == 0


class TestLinkFaults:
    def test_degradation_scales_and_shifts_delay(self, net):
        sim, network = net
        recorder = wire(sim, network)  # constant 1000 ns
        link = network.link("a", "b")
        token = link.push_fault(multiplier=3.0, extra_ns=500)
        network.send("a", "b", "slow")
        link.pop_fault(token)
        network.send("a", "b", "fast")
        sim.run()
        assert [(m, t) for m, _, t in recorder.received] == [
            ("slow", 3_500),
            ("fast", 3_501),  # FIFO: may not overtake the slow one
        ]

    def test_faults_stack_and_unwind(self, net):
        sim, network = net
        wire(sim, network)
        link = network.link("a", "b")
        t1 = link.push_fault(multiplier=2.0)
        t2 = link.push_fault(extra_ns=100)
        assert link._fault == (2.0, 100)
        link.pop_fault(t1)
        assert link._fault == (1.0, 100)
        link.pop_fault(t2)
        assert link._fault is None

    def test_blocked_link_drops_at_source(self, net):
        sim, network = net
        recorder = wire(sim, network)
        link = network.link("a", "b")
        link.block()
        network.send("a", "b", "partitioned")
        link.unblock()
        network.send("a", "b", "healed")
        sim.run()
        assert [m for m, _, _ in recorder.received] == ["healed"]
        assert link.dropped_partitioned == 1

    def test_unblock_without_block_raises(self, net):
        sim, network = net
        wire(sim, network)
        with pytest.raises(ValueError):
            network.link("a", "b").unblock()

    def test_partition_blocks_both_directions_and_heals(self, net):
        sim, network = net
        recorder_b = wire(sim, network)
        network.connect("b", "a", ConstantLatency(1_000))
        recorder_a = Recorder(sim, "a")
        network.host("a").bind(recorder_a)
        blocked = network.partition(["a"], ["b"])
        assert len(blocked) == 2
        network.send("a", "b", "x")
        network.send("b", "a", "y")
        sim.run()
        network.heal(blocked)
        network.send("a", "b", "x2")
        network.send("b", "a", "y2")
        sim.run()
        assert [m for m, _, _ in recorder_b.received] == ["x2"]
        assert [m for m, _, _ in recorder_a.received] == ["y2"]

    def test_partition_ignores_missing_links(self, net):
        _, network = net
        network.add_host("a")
        network.add_host("b")
        assert network.partition(["a"], ["b"]) == []

    def test_links_touching(self, net):
        sim, network = net
        wire(sim, network)
        network.connect("b", "a", ConstantLatency(1))
        network.add_host("c")
        network.connect("a", "c", ConstantLatency(1))
        assert len(network.links_touching("a")) == 3
        assert len(network.links_touching("b")) == 2
        with pytest.raises(KeyError):
            network.links_touching("nope")


class TestTopology:
    def test_duplicate_host_rejected(self, net):
        _, network = net
        network.add_host("a")
        with pytest.raises(ValueError):
            network.add_host("a")

    def test_duplicate_link_rejected(self, net):
        sim, network = net
        wire(sim, network)
        with pytest.raises(ValueError):
            network.connect("a", "b", ConstantLatency(1))

    def test_missing_link_raises(self, net):
        _, network = net
        network.add_host("a")
        network.add_host("b")
        with pytest.raises(KeyError):
            network.send("a", "b", "x")

    def test_unknown_host_raises(self, net):
        _, network = net
        with pytest.raises(KeyError):
            network.host("nope")

    def test_bidirectional_creates_both(self, net):
        _, network = net
        network.add_host("a")
        network.add_host("b")
        network.connect_bidirectional("a", "b", ConstantLatency(1))
        assert network.link("a", "b") is not network.link("b", "a")

    def test_unbound_host_delivery_raises(self, net):
        sim, network = net
        network.add_host("a")
        network.add_host("b")
        network.connect("a", "b", ConstantLatency(1))
        network.send("a", "b", "x")
        with pytest.raises(RuntimeError):
            sim.run()

    def test_rebinding_same_actor_ok(self, net):
        sim, network = net
        recorder = wire(sim, network)
        network.host("b").bind(recorder)  # idempotent

    def test_rebinding_different_actor_rejected(self, net):
        sim, network = net
        wire(sim, network)
        with pytest.raises(ValueError):
            network.host("b").bind(Recorder(sim, "other"))

class TestSendMany:
    """send_many is a fanout train: bit-identical to a send loop."""

    def _fanout_net(self, seed):
        sim = Simulator()
        network = Network(sim, RngRegistry(seed))
        network.add_host("src")
        recorders = []
        for i in range(5):
            name = f"dst{i}"
            network.add_host(name)
            network.connect("src", name, UniformLatency(1_000, 40_000))
            recorder = Recorder(sim, name)
            network.host(name).bind(recorder)
        return sim, network, recorders

    def _collect(self, sim, network):
        out = []
        for (src, dst), _ in sorted(network.links.items()):
            out.append((dst, network.host(dst).actor.received))
        return out

    def test_matches_send_loop_exactly(self):
        sends = [(f"dst{i % 5}", f"payload-{i}") for i in range(40)]
        sim_a, net_a, _ = self._fanout_net(17)
        for dst, payload in sends:
            net_a.send("src", dst, payload)
        sim_a.run()
        sim_b, net_b, _ = self._fanout_net(17)
        net_b.send_many("src", sends)
        sim_b.run()
        # Same deliveries, same simulated times, same event count: the
        # bulk path consumed identical RNG draws and sequence numbers.
        assert self._collect(sim_a, net_a) == self._collect(sim_b, net_b)
        assert sim_a.events_processed == sim_b.events_processed
        assert sim_a.now == sim_b.now

    def test_dropped_send_in_train_skips_only_that_destination(self):
        sim, network, _ = self._fanout_net(3)
        network.link("src", "dst2").block()
        network.send_many("src", [(f"dst{i}", i) for i in range(5)])
        assert sim.pending() == 4
        sim.run()
        assert network.host("dst2").actor.received == []
        assert network.host("dst1").actor.received != []
        assert network.link("src", "dst2").dropped_partitioned == 1

    def test_missing_link_raises(self):
        sim, network, _ = self._fanout_net(3)
        with pytest.raises(KeyError):
            network.send_many("src", [("dst0", 1), ("nowhere", 2)])

    def test_empty_fanout_is_noop(self):
        sim, network, _ = self._fanout_net(3)
        network.send_many("src", [])
        assert sim.pending() == 0


class TestDelayBlocks:
    """A link's delays come off its stream in blocks of ``DRAW_BLOCK``
    (DESIGN §4.11): the n-th message to leave gets the n-th draw."""

    MODELS = {
        "cloud": lambda: cloud_link(80.0, spike_prob=0.05),
        "straggler": lambda: StragglerLatency(cloud_link(80.0, spike_prob=0.05), 3.0),
        "injected": lambda: PeriodicInjectedDelay(cloud_link(80.0), [0, 400_000, 200_000], 7_000),
        "straggler-over-injected": lambda: StragglerLatency(
            PeriodicInjectedDelay(cloud_link(80.0), [0, 400_000, 200_000], 7_000), 2.5
        ),
    }

    @staticmethod
    def _net(model, seed=9, second_link=False):
        sim = Simulator()
        network = Network(sim, RngRegistry(seed))
        for name in ("a", "b", "c"):
            network.add_host(name)
            network.host(name).bind(Recorder(sim, name))
        network.connect("a", "b", model, fifo=False)
        if second_link:
            network.connect("a", "c", model, fifo=False)
        return sim, network

    @staticmethod
    def _send_at(sim, network, times, dst="b"):
        """Send message i at true time ``times[i]``."""
        for i, t in enumerate(times):
            sim.schedule_at(t, network.send, "a", dst, i)

    @staticmethod
    def _delays(network, times, dst="b"):
        arrivals = {i: t for i, _, t in network.host(dst).actor.received}
        return [arrivals[i] - times[i] for i in range(len(times))]

    @pytest.mark.parametrize("name", MODELS)
    def test_a_block_of_sends_is_sample_many_at_the_sends_true_times(self, name):
        """Values, column order and generator state -- including the
        phase in force at each send when a step falls inside the block."""
        model = self.MODELS[name]()
        sim, network = self._net(model)
        times = [1_000 * i for i in range(2 * DRAW_BLOCK)]  # a phase step every seven sends
        self._send_at(sim, network, times)
        sim.run()
        twin = RngRegistry(9).stream("link:a->b")
        expected = [
            delay
            for start in (0, DRAW_BLOCK)
            for delay in reference.sample_columns(model, twin, times[start:start + DRAW_BLOCK])
        ]
        assert self._delays(network, times) == expected
        assert network.link("a", "b").rng.bit_generator.state == twin.bit_generator.state

    def test_injected_phase_follows_the_send_not_the_draw(self, net):
        sim, network = net
        model = PeriodicInjectedDelay(ConstantLatency(10_000), [0, 400_000, 200_000], SECOND)
        straggling = StragglerLatency(model, 2.0)
        network.add_host("a")
        for name, latency in (("b", model), ("c", straggling)):
            network.add_host(name)
            network.host(name).bind(Recorder(sim, name))
            network.connect("a", name, latency, fifo=False)
        times = [0, SECOND - 1, SECOND, 2 * SECOND - 1, 2 * SECOND, 3 * SECOND]
        assert len(times) < DRAW_BLOCK  # all six delays sit in the first block
        self._send_at(sim, network, times, "b")
        self._send_at(sim, network, times, "c")
        sim.run()
        plain = [10_000, 10_000, 410_000, 410_000, 210_000, 10_000]
        assert self._delays(network, times, "b") == plain
        assert self._delays(network, times, "c") == [2 * d for d in plain]

    def test_nth_delay_does_not_depend_on_when_or_beside_what_it_is_sent(self):
        model = self.MODELS["cloud"]
        n = 3 * DRAW_BLOCK + 5

        sim, network = self._net(model())
        self._send_at(sim, network, [0] * n)
        sim.run()
        at_once = self._delays(network, [0] * n)

        sim, network = self._net(model(), second_link=True)
        times = [37_000 * i for i in range(n)]
        self._send_at(sim, network, times)
        self._send_at(sim, network, times[::2], dst="c")  # the RngRegistry isolation property
        sim.run(until=times[n // 2])  # ... and the run cut in two
        sim.run()
        assert self._delays(network, times) == at_once

    def test_delay_quantiles_match_scalar_sample(self):
        """Same distribution: 400 k delays off a link's blocks against
        400 k scalar oracle draws, p50 / p90 / p99 within 1 %, p99.9 within 3 %."""
        n = 400_000
        model = cloud_link(100.0, spike_prob=0.001)
        _, network = self._net(model)
        link = network.link("a", "b")  # not FIFO, at t=0: an arrival is a delay
        block = np.array([link.prepare(None)[0] for _ in range(n)])
        scalar_rng = RngRegistry(10).stream("scalar")
        oracle = reference.composed(model)
        scalar = np.array([oracle.sample(scalar_rng, 0) for _ in range(n)])
        for q, rel in ((50, 0.01), (90, 0.01), (99, 0.01), (99.9, 0.03)):
            assert np.percentile(block, q) == pytest.approx(np.percentile(scalar, q), rel=rel)

    def test_nothing_is_drawn_before_the_first_send(self):
        sim, network = self._net(self.MODELS["cloud"]())
        fresh = RngRegistry(9).stream("link:a->b").bit_generator.state
        assert network.link("a", "b").rng.bit_generator.state == fresh
        network.send("a", "b", 0)
        assert network.link("a", "b").rng.bit_generator.state != fresh

    @pytest.mark.parametrize("drop", ["source-down", "partitioned"])
    def test_a_dropped_send_takes_no_delay(self, drop):
        model = self.MODELS["cloud"]
        sim, network = self._net(model())
        self._send_at(sim, network, [0] * 10)
        sim.run()
        undisturbed = self._delays(network, [0] * 10)

        sim, network = self._net(model())
        link = network.link("a", "b")
        for i in range(10):
            if i in (0, 4):  # before the first block exists, and inside it
                state = link.rng.bit_generator.state
                if drop == "source-down":
                    network.host("a").crash()
                else:
                    link.block()
                network.send("a", "b", "lost")
                if drop == "source-down":
                    network.host("a").restart()
                else:
                    link.unblock()
                assert link.rng.bit_generator.state == state
            network.send("a", "b", i)
        sim.run()
        assert self._delays(network, [0] * 10) == undisturbed
        assert network.host("a").dropped_sends_while_down + link.dropped_partitioned == 2

    def test_fault_scaling_and_fifo_bump_apply_after_the_draw(self):
        model = self.MODELS["cloud"]
        sim, network = self._net(model())
        self._send_at(sim, network, [0] * 3)
        sim.run()
        drawn = self._delays(network, [0] * 3)

        sim = Simulator()
        network = Network(sim, RngRegistry(9))
        for name in ("a", "b"):
            network.add_host(name)
        network.host("b").bind(Recorder(sim, "b"))
        link = network.connect("a", "b", model())  # FIFO this time
        token = link.push_fault(multiplier=50.0, extra_ns=7)
        network.send("a", "b", 0)
        link.pop_fault(token)
        network.send("a", "b", 1)
        network.send("a", "b", 2)
        sim.run()
        first = int(drawn[0] * 50.0) + 7
        assert self._delays(network, [0] * 3) == [first, first + 1, first + 2]
