"""Declarative fault schedules.

A :class:`FaultSchedule` is a validated, immutable list of fault
specifications with absolute activation times (seconds of simulated
time).  Schedules are plain data: they can be compared, serialized to
dicts, and attached to a :class:`~repro.core.config.CloudExConfig` via
its ``chaos`` field -- the same seed plus the same schedule replays
bit-for-bit.

This module deliberately imports nothing from ``repro.core`` (the
config dataclass imports *it*); faults name hosts and links by string,
and the :class:`~repro.chaos.injector.ChaosInjector` resolves names
against the cluster when the schedule is armed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim.timeunits import SECOND


def _check_time(name: str, at_s: float, duration_s: Optional[float]) -> None:
    if at_s < 0:
        raise ValueError(f"{name}: activation time must be non-negative, got {at_s}")
    if duration_s is not None and duration_s <= 0:
        raise ValueError(f"{name}: duration must be positive, got {duration_s}")


@dataclass(frozen=True)
class HostCrash:
    """Take ``host`` down at ``at_s``; restart after ``duration_s``
    (None = never restart).  A downed host neither receives nor sends."""

    host: str
    at_s: float
    duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        _check_time("HostCrash", self.at_s, self.duration_s)


@dataclass(frozen=True)
class LinkDegradation:
    """A latency storm on one directed link: sampled delays are scaled
    by ``multiplier`` and shifted by ``extra_us`` for the window."""

    src: str
    dst: str
    at_s: float
    duration_s: float
    multiplier: float = 1.0
    extra_us: float = 0.0

    def __post_init__(self) -> None:
        _check_time("LinkDegradation", self.at_s, self.duration_s)
        if self.multiplier < 1.0:
            raise ValueError(f"LinkDegradation: multiplier must be >= 1, got {self.multiplier}")
        if self.extra_us < 0.0:
            raise ValueError(f"LinkDegradation: extra_us must be >= 0, got {self.extra_us}")
        if self.multiplier == 1.0 and self.extra_us == 0.0:
            raise ValueError("LinkDegradation: specify a multiplier > 1 or extra_us > 0")


@dataclass(frozen=True)
class Partition:
    """Block every link between ``group_a`` and ``group_b`` (both
    directions) for the window.  Blocked messages are dropped at the
    source and counted, mirroring a TCP connection that never delivers."""

    group_a: Tuple[str, ...]
    group_b: Tuple[str, ...]
    at_s: float
    duration_s: float

    def __post_init__(self) -> None:
        _check_time("Partition", self.at_s, self.duration_s)
        if not self.group_a or not self.group_b:
            raise ValueError("Partition: both groups must be non-empty")
        overlap = set(self.group_a) & set(self.group_b)
        if overlap:
            raise ValueError(f"Partition: groups overlap on {sorted(overlap)}")


@dataclass(frozen=True)
class ClockStep:
    """Clock-sync degradation: step ``host``'s clock by ``step_us`` at
    ``at_s`` (e.g. a VM migration glitch).  The sync service re-disciplines
    the clock over subsequent rounds; until then its stamps are skewed."""

    host: str
    at_s: float
    step_us: float

    def __post_init__(self) -> None:
        _check_time("ClockStep", self.at_s, None)
        if self.step_us == 0.0:
            raise ValueError("ClockStep: step_us must be non-zero")


@dataclass(frozen=True)
class StragglerEpisode:
    """``host`` becomes a temporary straggler: every link touching it
    is slowed by ``multiplier`` for the window (cf. Fig. 6a's slow VM)."""

    host: str
    at_s: float
    duration_s: float
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        _check_time("StragglerEpisode", self.at_s, self.duration_s)
        if self.multiplier <= 1.0:
            raise ValueError(
                f"StragglerEpisode: multiplier must be > 1, got {self.multiplier}"
            )


#: The closed set of fault types a schedule may carry.
Fault = object
_FAULT_TYPES = (HostCrash, LinkDegradation, Partition, ClockStep, StragglerEpisode)


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, ordered collection of fault specifications."""

    faults: Tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, _FAULT_TYPES):
                raise TypeError(f"unsupported fault type: {fault!r}")

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        # An empty schedule is still a schedule: arming it must be a
        # no-op that perturbs nothing (tests/chaos/test_injector.py pins this).
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def end_s(self) -> float:
        """When the last fault window closes (0.0 for an empty schedule)."""
        end = 0.0
        for fault in self.faults:
            duration = getattr(fault, "duration_s", None) or 0.0
            end = max(end, fault.at_s + duration)
        return end

    def to_dicts(self) -> List[Dict[str, object]]:
        """Plain-dict form (fault type name + its fields), for reports."""
        out: List[Dict[str, object]] = []
        for fault in self.faults:
            entry: Dict[str, object] = {"fault": type(fault).__name__}
            for name in fault.__dataclass_fields__:
                value = getattr(fault, name)
                entry[name] = list(value) if isinstance(value, tuple) else value
            out.append(entry)
        return out

    def describe(self) -> str:
        """One line per fault, activation-ordered, for CLI output."""
        ordered = sorted(self.faults, key=lambda f: (f.at_s, type(f).__name__))
        lines = []
        for fault in ordered:
            fields = ", ".join(
                f"{name}={getattr(fault, name)!r}"
                for name in fault.__dataclass_fields__
                if name != "at_s"
            )
            lines.append(f"t={fault.at_s:.3f}s {type(fault).__name__}({fields})")
        return "\n".join(lines)

    def end_ns(self) -> int:
        return int(self.end_s() * SECOND)
