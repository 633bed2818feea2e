"""A bounded structured event log.

Components emit typed records (severity, component, kind, free-form
message, structured fields) into a ring buffer; when the buffer is
full the oldest records are dropped and counted.  Everything is plain
data with deterministic JSONL export, so a run's event log is
replayable evidence: the same seed produces the same log bytes.

This is deliberately not Python ``logging``: handlers there are
process-global, format lazily, and timestamp with the wall clock --
all wrong for a deterministic simulation.  Here the "timestamp" is
true simulation time and the whole log is an inspectable value.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional


class Severity(enum.IntEnum):
    DEBUG = 10
    INFO = 20
    WARNING = 30
    ERROR = 40


@dataclass(frozen=True)
class ObsEvent:
    """One structured log record."""

    t_true: int
    severity: Severity
    component: str
    kind: str
    message: str
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "t_true": self.t_true,
            "severity": self.severity.name,
            "component": self.component,
            "kind": self.kind,
            "message": self.message,
            "fields": self.fields,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ObsEvent":
        return cls(
            t_true=payload["t_true"],
            severity=Severity[payload["severity"]],
            component=payload["component"],
            kind=payload["kind"],
            message=payload["message"],
            fields=dict(payload.get("fields", {})),
        )


class EventLog:
    """Ring-buffered sink for :class:`ObsEvent` records."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Deque[ObsEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.counts_by_severity: Dict[Severity, int] = {s: 0 for s in Severity}

    def emit(
        self,
        t_true: int,
        severity: Severity,
        component: str,
        kind: str,
        message: str,
        **fields: object,
    ) -> ObsEvent:
        event = ObsEvent(
            t_true=t_true,
            severity=severity,
            component=component,
            kind=kind,
            message=message,
            fields=fields,
        )
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self.counts_by_severity[severity] += 1
        return event

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(
        self,
        min_severity: Severity = Severity.DEBUG,
        component: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> List[ObsEvent]:
        """Buffered events, optionally filtered."""
        return [
            e
            for e in self._events
            if e.severity >= min_severity
            and (component is None or e.component == component)
            and (kind is None or e.kind == kind)
        ]

    # ------------------------------------------------------------------
    # JSONL export / import
    # ------------------------------------------------------------------
    def dumps_jsonl(self) -> str:
        return "".join(
            json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            for e in self._events
        )

    def dump_jsonl(self, path) -> int:
        text = self.dumps_jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return len(self._events)

    @staticmethod
    def loads_jsonl(text: str) -> List[ObsEvent]:
        return [ObsEvent.from_dict(json.loads(line)) for line in text.splitlines() if line]

    @staticmethod
    def load_jsonl(path) -> List[ObsEvent]:
        with open(path, "r", encoding="utf-8") as fh:
            return EventLog.loads_jsonl(fh.read())

    @classmethod
    def from_events(cls, events: Iterable[ObsEvent]) -> "EventLog":
        log = cls()
        for event in events:
            log.emit(
                event.t_true,
                event.severity,
                event.component,
                event.kind,
                event.message,
                **event.fields,
            )
        return log

    def __repr__(self) -> str:
        return f"EventLog({len(self._events)}/{self.capacity}, dropped={self.dropped})"
