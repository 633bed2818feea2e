"""Discrete-event simulation substrate for the CloudEx reproduction.

This package stands in for the paper's 65-node Google Cloud cluster.  It
provides:

- :mod:`repro.sim.engine` -- the event loop (integer-nanosecond time).
- :mod:`repro.sim.clock` -- per-host clocks with drift and offset.
- :mod:`repro.sim.latency` -- cloud-like link latency models.
- :mod:`repro.sim.network` -- hosts, links, and message delivery.
- :mod:`repro.sim.cpu` -- CPU cost accounting and core pools.
- :mod:`repro.sim.rng` -- named, deterministic random streams.

Everything above this layer (gateways, sequencer, matching engine, ...)
is real CloudEx code; only the physical substrate is simulated.
"""

from repro.sim.clock import HostClock
from repro.sim.cpu import CorePool, CpuAccountant
from repro.sim.engine import Actor, Event, Simulator
from repro.sim.latency import (
    GammaLatency,
    LatencyModel,
    PeriodicInjectedDelay,
    StragglerLatency,
)
from repro.sim.network import Host, Link, Network
from repro.sim.rng import RngRegistry
from repro.sim.timeunits import MICROSECOND, MILLISECOND, NANOSECOND, SECOND

__all__ = [
    "Actor",
    "CorePool",
    "CpuAccountant",
    "Event",
    "GammaLatency",
    "Host",
    "HostClock",
    "LatencyModel",
    "Link",
    "MICROSECOND",
    "MILLISECOND",
    "NANOSECOND",
    "Network",
    "PeriodicInjectedDelay",
    "RngRegistry",
    "SECOND",
    "Simulator",
    "StragglerLatency",
]
