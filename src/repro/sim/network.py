"""Hosts, links, and message delivery.

The network layer plays the role of ZeroMQ-over-cloud in the paper:

- A :class:`Host` is a simulated VM: it has a :class:`HostClock`, a
  :class:`CpuAccountant`, an up/down flag (gateway crashes, §3), and a
  bound :class:`~repro.sim.engine.Actor` that receives messages.
- A :class:`Link` is a unidirectional transport between two hosts with
  a :class:`~repro.sim.latency.LatencyModel`.  Links are FIFO by
  default (ZeroMQ runs over TCP, which never reorders within a
  connection); *cross-link* reordering -- the source of inbound
  unfairness -- arises naturally because different links sample
  different delays.
- The :class:`Network` owns hosts and links and offers ``send`` /
  ``send_many``.

A message in flight is nothing but a scheduled ``Host.deliver(payload,
src)`` call: no per-send object, no per-send counters (latency and
throughput are measured where the paper measures them, in
:mod:`repro.core.metrics`).  Messages delivered to a downed host are
counted and dropped, never raised: crash behaviour is data, not an
error.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.clock import HostClock
from repro.sim.cpu import CpuAccountant
from repro.sim.engine import Actor, Simulator
from repro.sim.latency import LatencyModel
from repro.sim.rng import DRAW_BLOCK, RngRegistry, block_stream

#: The times of a block draw: ``split()``'s drawn part reads only their count.
_BLOCK_TIMES = np.zeros(DRAW_BLOCK, dtype=np.int64)


class Host:
    """A simulated VM."""

    def __init__(self, name: str, clock: HostClock, baseline_cores: float = 0.0) -> None:
        self.name = name
        self.clock = clock
        self.cpu = CpuAccountant(baseline_cores=baseline_cores)
        self.actor: Optional[Actor] = None
        self.up: bool = True
        self.dropped_while_down: int = 0
        self.dropped_sends_while_down: int = 0

    def bind(self, actor: Actor) -> None:
        """Attach the actor that handles this host's inbound messages."""
        if self.actor is not None and self.actor is not actor:
            raise ValueError(f"host {self.name!r} is already bound to {self.actor!r}")
        self.actor = actor

    def crash(self) -> None:
        """Take the host down.

        While down the host neither receives nor sends: a message
        *addressed to* it -- including one already in flight at crash
        time -- is dropped at its scheduled delivery instant if the
        host is still down then (the ``up`` check in :meth:`deliver`;
        a host that restarts before the arrival still receives it),
        and messages its actor tries to send are dropped at the source
        (the ``src.up`` check in :meth:`Link.prepare`).  Dropped messages
        stay lost after :meth:`restart`; nothing is requeued.
        """
        self.up = False

    def restart(self) -> None:
        """Bring the host back up.  Messages dropped while down stay lost."""
        self.up = True

    def deliver(self, payload: Any, src: str) -> None:
        """Hand a just-arrived payload from host ``src`` to the bound actor."""
        if not self.up:
            self.dropped_while_down += 1
            return
        if self.actor is None:
            raise RuntimeError(f"host {self.name!r} has no bound actor for {payload!r}")
        self.actor.on_message(payload, src)

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"Host({self.name!r}, {state})"


class Link:
    """A unidirectional, latency-sampling, optionally-FIFO transport.

    Delays come off the link's own ``link:src->dst`` stream a block of
    :data:`~repro.sim.rng.DRAW_BLOCK` at a time (DESIGN §4.11): the n-th
    message to leave the source gets the n-th draw, and the model's timed
    part (``split()``'s ``finish``) is applied at that send's true time.

    Runtime faults (:mod:`repro.chaos`) attach here: a *degradation*
    scales/shifts sampled delays for a window, a *partition* blocks the
    link entirely.  Both are stacked (nested windows compose) and both
    cost exactly one ``is not None`` / truthiness test on the unfaulted
    hot path.
    """

    def __init__(
        self,
        sim: Simulator,
        src: Host,
        dst: Host,
        latency: LatencyModel,
        rngs: RngRegistry,
        fifo: bool = True,
    ) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency = latency
        self.fifo = fifo
        self.rng = rng = rngs.stream(f"link:{src.name}->{dst.name}")
        drawn, self._finish = latency.split()
        self._delays = block_stream(lambda: drawn.sample_many(rng, _BLOCK_TIMES).tolist())
        self._last_arrival: int = -1
        # Active latency faults: list of (multiplier, extra_ns) plus
        # their product/sum folded into one tuple (None = no fault).
        self._fault_stack: List[Tuple[float, int]] = []
        self._fault: Optional[Tuple[float, int]] = None
        # Partition nesting depth: > 0 means the link is blocked.
        self._blocked: int = 0
        self.dropped_partitioned: int = 0
        # Prebound per-send hot references (a bound method per send is
        # an allocation; endpoints never change after construction).
        self._deliver = dst.deliver
        self._schedule_message = sim.schedule_message
        self._src_name = src.name

    # ------------------------------------------------------------------
    # Runtime faults (repro.chaos)
    # ------------------------------------------------------------------
    def push_fault(self, multiplier: float = 1.0, extra_ns: int = 0) -> Tuple[float, int]:
        """Stack a latency fault; returns a token for :meth:`pop_fault`."""
        token = (multiplier, extra_ns)
        self._fault_stack.append(token)
        self._refold_faults()
        return token

    def pop_fault(self, token: Tuple[float, int]) -> None:
        """Remove one previously pushed latency fault."""
        self._fault_stack.remove(token)
        self._refold_faults()

    def _refold_faults(self) -> None:
        if not self._fault_stack:
            self._fault = None
            return
        multiplier = 1.0
        extra = 0
        for m, e in self._fault_stack:
            multiplier *= m
            extra += e
        self._fault = (multiplier, extra)

    def block(self) -> None:
        """Partition this link (nests: block twice, unblock twice)."""
        self._blocked += 1

    def unblock(self) -> None:
        """Remove one level of partition."""
        if self._blocked <= 0:
            raise ValueError(f"link {self.src.name}->{self.dst.name} is not blocked")
        self._blocked -= 1

    @property
    def blocked(self) -> bool:
        return self._blocked > 0

    def prepare(self, payload: Any) -> Optional[tuple]:
        """Everything :meth:`send` does except the scheduling itself.

        Returns the ``(arrival_ns, deliver, payload, src_name)`` entry
        ready for :meth:`~repro.sim.engine.Simulator.schedule_message`
        (or the bulk variant), or ``None`` when the send was dropped at
        the source (downed host, partitioned link).  Splitting
        preparation from scheduling lets fanout sites collect a whole
        train of deliveries and hand them to ``schedule_message_bulk``
        in one call -- taking the next delay (a dropped send takes none),
        FIFO bumping, and drop counters happen here, in per-call order,
        so a bulk-scheduled fanout is bit-identical to a loop of sends.
        """
        if not self.src.up:
            self.src.dropped_sends_while_down += 1
            return None
        if self._blocked:
            self.dropped_partitioned += 1
            return None
        now = self.sim.now
        delay = next(self._delays)
        if self._finish is not None:
            delay = self._finish(delay, now)
        if self._fault is not None:
            multiplier, extra_ns = self._fault
            delay = int(delay * multiplier) + extra_ns
        arrival = now + delay
        if self.fifo and arrival <= self._last_arrival:
            arrival = self._last_arrival + 1
        self._last_arrival = arrival
        return arrival, self._deliver, payload, self._src_name

    def send(self, payload: Any) -> None:
        """Take the next delay and schedule delivery at the destination.

        A send from a downed source host, or over a partitioned link,
        is dropped at the source: counted, never scheduled.
        """
        entry = self.prepare(payload)
        if entry is not None:
            self._schedule_message(*entry)

    def __repr__(self) -> str:
        return f"Link({self.src.name}->{self.dst.name}, {self.latency!r})"


class Network:
    """The fabric: a registry of hosts and directed links."""

    def __init__(self, sim: Simulator, rngs: RngRegistry) -> None:
        self.sim = sim
        self.rngs = rngs
        self.hosts: Dict[str, Host] = {}
        self.links: Dict[Tuple[str, str], Link] = {}

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_host(
        self,
        name: str,
        drift_ppb: int = 0,
        offset_ns: int = 0,
        baseline_cores: float = 0.0,
    ) -> Host:
        """Create and register a host with its own (possibly wrong) clock."""
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        clock = HostClock(self.sim, drift_ppb=drift_ppb, offset_ns=offset_ns)
        host = Host(name, clock, baseline_cores=baseline_cores)
        self.hosts[name] = host
        return host

    def connect(self, src: str, dst: str, latency: LatencyModel, fifo: bool = True) -> Link:
        """Create the directed link src -> dst.  One link per pair."""
        key = (src, dst)
        if key in self.links:
            raise ValueError(f"link {src}->{dst} already exists")
        link = Link(self.sim, self.hosts[src], self.hosts[dst], latency, self.rngs, fifo=fifo)
        self.links[key] = link
        return link

    def connect_bidirectional(
        self, a: str, b: str, latency: LatencyModel, fifo: bool = True
    ) -> Tuple[Link, Link]:
        """Create both directions with the same latency model (independent draws)."""
        return (
            self.connect(a, b, latency, fifo=fifo),
            self.connect(b, a, latency, fifo=fifo),
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def link(self, src: str, dst: str) -> Link:
        """Look up the directed link src -> dst."""
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src}->{dst}; call connect() first") from None

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Send ``payload`` from ``src`` to ``dst`` over their link."""
        link = self.links.get((src, dst))
        if link is None:
            raise KeyError(f"no link {src}->{dst}; call connect() first")
        link.send(payload)

    def send_many(self, src: str, sends: "List[Tuple[str, Any]]") -> None:
        """Send a fanout train ``[(dst, payload), ...]`` from ``src``.

        Semantically identical to calling :meth:`send` once per pair in
        order -- each link's latency draws, FIFO bumping, and counters
        happen per destination in the given order, and
        ``schedule_message_bulk`` consumes the same sequence numbers a
        send loop would -- but the simulator heap is maintained once
        for the whole train instead of once per destination.  Built for
        the market-data publish fanout, where one book event becomes
        one message per MD gateway.
        """
        links = self.links
        entries = []
        for dst, payload in sends:
            link = links.get((src, dst))
            if link is None:
                raise KeyError(f"no link {src}->{dst}; call connect() first")
            entry = link.prepare(payload)
            if entry is not None:
                entries.append(entry)
        self.sim.schedule_message_bulk(entries)

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self.hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    # ------------------------------------------------------------------
    # Runtime faults (repro.chaos)
    # ------------------------------------------------------------------
    def links_touching(self, host: str) -> List[Link]:
        """Every link with ``host`` as source or destination."""
        if host not in self.hosts:
            raise KeyError(f"unknown host {host!r}")
        return [
            link for (src, dst), link in self.links.items() if host in (src, dst)
        ]

    def degrade_link(
        self, src: str, dst: str, multiplier: float = 1.0, extra_ns: int = 0
    ) -> Tuple[float, int]:
        """Stack a latency fault on src -> dst; returns the pop token."""
        return self.link(src, dst).push_fault(multiplier, extra_ns)

    def restore_link(self, src: str, dst: str, token: Tuple[float, int]) -> None:
        """Remove a previously stacked latency fault from src -> dst."""
        self.link(src, dst).pop_fault(token)

    def partition(self, group_a, group_b) -> List[Link]:
        """Block every existing link between the two host groups (both
        directions).  Returns the blocked links for :meth:`heal`."""
        blocked: List[Link] = []
        for a in group_a:
            for b in group_b:
                for key in ((a, b), (b, a)):
                    link = self.links.get(key)
                    if link is not None:
                        link.block()
                        blocked.append(link)
        return blocked

    def heal(self, blocked: List[Link]) -> None:
        """Undo one :meth:`partition` call."""
        for link in blocked:
            link.unblock()

    def __repr__(self) -> str:
        return f"Network(hosts={len(self.hosts)}, links={len(self.links)})"
