"""Apply a :class:`~repro.chaos.schedule.FaultSchedule` to a cluster.

The injector translates each declarative fault into simulator-scheduled
transition events (``Simulator.schedule_fault``, which run at a
priority ahead of ordinary deliveries at the same instant), so an
entire chaos run is an ordinary deterministic simulation: same seed +
same schedule = same event sequence, bit for bit.

Every fault transition bumps one of the injector's five tallies (which
the cluster's collector reads as ``chaos.*``) and emits a structured
event into the cluster's :class:`~repro.obs.events.EventLog` -- faults
leave the same replayable evidence as the behaviour they provoke.
"""

from __future__ import annotations

from typing import Dict, List

from repro.chaos.schedule import (
    ClockStep,
    FaultSchedule,
    HostCrash,
    LinkDegradation,
    Partition,
    StragglerEpisode,
)
from repro.obs.events import Severity
from repro.sim.timeunits import MICROSECOND, SECOND


class ChaosInjector:
    """Arms a fault schedule against a :class:`CloudExCluster`.

    The cluster builder constructs one when ``config.chaos`` is set and
    calls :meth:`arm` on the first ``run()``; nothing here runs on the
    hot path -- all cost is in the scheduled transitions themselves.
    """

    def __init__(self, cluster, schedule: FaultSchedule) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self._armed = False
        #: Transition log: (t_ns, description) in application order.
        self.injected: List[tuple] = []
        # Partition spec id -> queued block sets awaiting their heal.
        self._open_partitions: Dict[int, List[list]] = {}
        # Fault transitions applied so far, by kind.
        self.crashes = self.restarts = self.link_faults = self.partitions = self.clock_steps = 0
        for tally in ("crashes", "restarts", "link_faults", "partitions", "clock_steps"):
            cluster.metrics.count(f"chaos.{tally}", lambda tally=tally: getattr(self, tally))
        self._gateways_by_name: Dict[str, object] = {
            gateway.name: gateway for gateway in cluster.gateways
        }

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every fault transition.  Idempotent."""
        if self._armed:
            return
        self._armed = True
        for fault in self.schedule:
            self._validate(fault)
        sim = self.cluster.sim
        for fault in self.schedule:
            at_ns = sim.now + int(fault.at_s * SECOND)
            if isinstance(fault, HostCrash):
                sim.schedule_fault(at_ns, self._crash, fault.host)
                if fault.duration_s is not None:
                    end_ns = at_ns + int(fault.duration_s * SECOND)
                    sim.schedule_fault(end_ns, self._restart, fault.host)
            elif isinstance(fault, LinkDegradation):
                extra_ns = int(fault.extra_us * MICROSECOND)
                sim.schedule_fault(
                    at_ns, self._degrade, fault.src, fault.dst, fault.multiplier, extra_ns
                )
                end_ns = at_ns + int(fault.duration_s * SECOND)
                sim.schedule_fault(
                    end_ns, self._restore, fault.src, fault.dst, fault.multiplier, extra_ns
                )
            elif isinstance(fault, Partition):
                sim.schedule_fault(at_ns, self._partition, fault)
                end_ns = at_ns + int(fault.duration_s * SECOND)
                sim.schedule_fault(end_ns, self._heal, fault)
            elif isinstance(fault, ClockStep):
                sim.schedule_fault(
                    at_ns, self._clock_step, fault.host, int(fault.step_us * MICROSECOND)
                )
            elif isinstance(fault, StragglerEpisode):
                sim.schedule_fault(at_ns, self._straggle, fault.host, fault.multiplier)
                end_ns = at_ns + int(fault.duration_s * SECOND)
                sim.schedule_fault(end_ns, self._unstraggle, fault.host, fault.multiplier)

    def _validate(self, fault) -> None:
        """Resolve every referenced host up front: a typo'd host name
        should fail at arm time, not silently mid-run."""
        network = self.cluster.network
        for attr in ("host", "src", "dst"):
            name = getattr(fault, attr, None)
            if name is not None:
                network.host(name)
        for attr in ("group_a", "group_b"):
            for name in getattr(fault, attr, ()):
                network.host(name)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _note(self, kind: str, message: str, **fields) -> None:
        now = self.cluster.sim.now
        self.injected.append((now, message))
        self.cluster.events.emit(
            now, Severity.WARNING, "chaos", kind, message, **fields
        )

    def _crash(self, host_name: str) -> None:
        self.cluster.network.host(host_name).crash()
        self.crashes += 1
        self._note("chaos.crash", f"host {host_name} crashed", host=host_name)

    def _restart(self, host_name: str) -> None:
        self.cluster.network.host(host_name).restart()
        self.restarts += 1
        gateway = self._gateways_by_name.get(host_name)
        if gateway is not None:
            gateway.rejoin()
        self._note("chaos.restart", f"host {host_name} restarted", host=host_name)

    def _degrade(self, src: str, dst: str, multiplier: float, extra_ns: int) -> None:
        self.cluster.network.degrade_link(src, dst, multiplier, extra_ns)
        self.link_faults += 1
        self._note(
            "chaos.link_degraded",
            f"link {src}->{dst} degraded x{multiplier} +{extra_ns}ns",
            src=src, dst=dst, multiplier=multiplier, extra_ns=extra_ns,
        )

    def _restore(self, src: str, dst: str, multiplier: float, extra_ns: int) -> None:
        self.cluster.network.restore_link(src, dst, (multiplier, extra_ns))
        self._note(
            "chaos.link_restored", f"link {src}->{dst} restored", src=src, dst=dst
        )

    def _partition(self, fault: Partition) -> None:
        blocked = self.cluster.network.partition(fault.group_a, fault.group_b)
        # Stash by identity of the spec: schedules are immutable, so
        # the heal transition can find its own block set.
        self._open_partitions.setdefault(id(fault), []).append(blocked)
        self.partitions += 1
        self._note(
            "chaos.partition",
            f"partitioned {list(fault.group_a)} | {list(fault.group_b)} "
            f"({len(blocked)} links)",
            group_a=list(fault.group_a), group_b=list(fault.group_b),
        )

    def _heal(self, fault: Partition) -> None:
        blocked = self._open_partitions[id(fault)].pop(0)
        self.cluster.network.heal(blocked)
        self._note(
            "chaos.heal",
            f"healed partition {list(fault.group_a)} | {list(fault.group_b)}",
            group_a=list(fault.group_a), group_b=list(fault.group_b),
        )

    def _clock_step(self, host_name: str, step_ns: int) -> None:
        host = self.cluster.network.host(host_name)
        host.clock.offset_ns += step_ns
        self.clock_steps += 1
        self._note(
            "chaos.clock_step",
            f"clock of {host_name} stepped by {step_ns} ns",
            host=host_name, step_ns=step_ns,
        )

    def _straggle(self, host_name: str, multiplier: float) -> None:
        for link in self.cluster.network.links_touching(host_name):
            link.push_fault(multiplier, 0)
        self.link_faults += 1
        self._note(
            "chaos.straggler",
            f"host {host_name} straggling x{multiplier}",
            host=host_name, multiplier=multiplier,
        )

    def _unstraggle(self, host_name: str, multiplier: float) -> None:
        for link in self.cluster.network.links_touching(host_name):
            link.pop_fault((multiplier, 0))
        self._note(
            "chaos.straggler_end", f"host {host_name} recovered", host=host_name
        )

    def __repr__(self) -> str:
        return f"ChaosInjector(faults={len(self.schedule)}, armed={self._armed})"
