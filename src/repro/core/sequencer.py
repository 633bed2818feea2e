"""The sequencer: rank-ordered release after a hold (the paper's ``d_s``).

Paper §2.1/§2.2: the sequencer enqueues inbound orders into a priority
queue keyed by gateway timestamp and dequeues an order O only once
``t_C - t_O >= d_s`` on the exchange clock, giving earlier-stamped but
slower-travelling orders time to arrive and take their rightful place.

The matching engine *pulls*: a shard asks for the next eligible item
whenever it goes idle.  This matters beyond plumbing -- while the
engine is busy, arriving orders accumulate in the priority queue and
come out timestamp-sorted, so even a static ``d_s = 0`` resequences
the backlog (the paper's 24.6% -> 8.4% clock-sync result).  A
push-to-FIFO design would lose exactly that effect.

Each dequeue produces a :class:`SequencerSample` recording the queuing
delay (enqueue->dequeue, the paper's Fig. 4/5 y-axis) and whether the
order was processed out of sequence -- the *measured* inbound
unfairness uses gateway timestamps (the exchange's only knowledge),
while the *ground-truth* flag uses true stamping instants and is what
makes the no-clock-sync experiment meaningful (a desynchronized
exchange can look fair by its own broken timestamps).

The sequencer is delay-agnostic plumbing: Dynamic Delay Parameters
(:mod:`repro.core.ddp`) adjusts ``d_s`` at runtime via
:meth:`Sequencer.set_delay`.

It is also the *only* inbound queue.  What a fairness policy
(:mod:`repro.fairness`) may vary are two parameters of it, not a reason
for a second heap, timer or sample bookkeeping:

- the **rank rule** ``(priority_key, arrival_local) -> virtual
  timestamp`` on the exchange clock, evaluated once at enqueue and
  frozen as the leading heap key (so heap order is stable).  Default:
  the gateway timestamp, i.e. the paper's order ``(ts, gateway_id,
  gateway_seq, insertion)``.  DBO ranks by ``gateway_ts + min observed
  lag``; the no-op baseline by the arrival instant, which is FIFO.
- the **hold** added to the head's rank before it is eligible: the
  settable ``d_s``, or a live ``guard`` read whenever a release time is
  computed (DBO's measured jitter bound).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.sim.clock import HostClock
from repro.sim.engine import Event, Simulator

#: ``(priority_key, arrival_local) -> virtual timestamp`` (exchange clock).
RankRule = Callable[[tuple, int], int]


@dataclass(frozen=True, slots=True)
class SequencerSample:
    """Metrics emitted for every dequeued item."""

    gateway_timestamp: int
    enqueued_local: int
    dequeued_local: int
    out_of_sequence: bool
    out_of_sequence_true: bool

    @property
    def queuing_delay_ns(self) -> int:
        return self.dequeued_local - self.enqueued_local


class Sequencer:
    """A hold-then-release priority queue over ranked gateway stamps.

    Parameters
    ----------
    sim, clock:
        Simulator and the exchange server's (reference) clock.
    on_eligible:
        Called (with no arguments) when the queue head *becomes*
        eligible -- the idle consumer's wake-up signal.  A busy
        consumer ignores it and pulls again when it finishes.
    delay_ns:
        Initial hold delay ``d_s``.
    on_sample:
        Optional callback receiving a :class:`SequencerSample` per
        dequeue -- wired to DDP and the metrics collector.
    on_release:
        Optional callback receiving ``(item, eligible_local)`` per
        dequeue -- the item-identity hook samples deliberately lack,
        wired to the lifecycle tracer's ``seq_hold`` span.
    rank:
        The rank rule (module docstring); None ranks by gateway
        timestamp.  Equal ranks fall back to ``priority_key``, then
        insertion order, under every rule.
    guard:
        Optional zero-argument callable returning the current hold in
        ns.  When given it replaces ``delay_ns`` and :meth:`set_delay`
        is inert: a measured hold is not a tunable one.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: HostClock,
        on_eligible: Callable[[], None],
        delay_ns: int = 0,
        on_sample: Optional[Callable[[SequencerSample], None]] = None,
        on_release: Optional[Callable[[Any, int], None]] = None,
        rank: Optional[RankRule] = None,
        guard: Optional[Callable[[], int]] = None,
    ) -> None:
        if delay_ns < 0:
            raise ValueError(f"d_s must be non-negative, got {delay_ns}")
        self.sim = sim
        self.clock = clock
        self.on_eligible = on_eligible
        self._delay_ns = delay_ns
        self.on_sample = on_sample
        self.on_release = on_release
        self._rank = rank
        self._guard = guard
        # Heap entries: (rank, priority_key, insertion_seq, item,
        # stamped_true, enqueued_local)
        self._heap: List[tuple] = []
        self._seq = 0
        self._wakeup: Optional[Event] = None
        self._wakeup_target: int = 0
        self._last_released_ts: Optional[int] = None
        self._last_released_true: Optional[int] = None

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def enqueue(self, priority_key: tuple, item: Any, stamped_true: int) -> None:
        """Admit an item keyed by ``(gateway_timestamp, gateway_id,
        gateway_seq)``.

        ``stamped_true`` is the ground-truth stamping instant, used only
        for the true-unfairness metric.
        """
        now_local = self.clock.now()
        rank = priority_key[0] if self._rank is None else self._rank(priority_key, now_local)
        entry = (rank, priority_key, self._seq, item, stamped_true, now_local)
        self._seq += 1
        heapq.heappush(self._heap, entry)
        if self._heap[0] is entry:
            # New head: the earliest release time moved up.
            self._arm_or_notify()

    @property
    def delay_ns(self) -> int:
        """The current hold: ``d_s``, or the live guard's reading."""
        return self._delay_ns if self._guard is None else self._guard()

    def set_delay(self, delay_ns: int) -> None:
        """Update ``d_s`` (DDP).  Re-arms the release timer.

        Mid-run semantics (pinned; DDP and golden runs rely on them):
        release times are computed lazily at pop as ``rank +
        self.delay_ns``, never stored, so *already-queued* items see the
        new delay too -- lowering ``d_s`` makes an already-overdue head
        eligible immediately (``_arm_or_notify`` calls ``on_eligible``
        synchronously), and raising it retroactively extends the hold
        of everything still queued.  The queue order itself (rank
        priority) never changes.  Inert under a live ``guard``.
        """
        if delay_ns < 0:
            raise ValueError(f"d_s must be non-negative, got {delay_ns}")
        if self._guard is not None or delay_ns == self._delay_ns:
            return
        self._delay_ns = delay_ns
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
        self._arm_or_notify()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def _head_release_local(self) -> Optional[int]:
        if not self._heap:
            return None
        return self._heap[0][0] + self.delay_ns

    def pop_eligible(self) -> Optional[Any]:
        """Dequeue the head if its hold delay has elapsed, else None.

        When the head is not yet eligible, the release timer is armed
        so ``on_eligible`` fires the moment it becomes so.
        """
        release_at = self._head_release_local()
        if release_at is None:
            return None
        now_local = self.clock.now()
        if release_at > now_local:
            self._arm(release_at)
            return None
        _, key, _, item, stamped_true, enqueued_local = heapq.heappop(self._heap)
        # Queuing delay (paper fn. 4: enqueue -> dequeue at the
        # sequencer) is measured to the *eligibility* instant: the
        # sequencer releases the order then, and any further wait is
        # matching-engine queueing, not sequencer hold.
        eligible_local = max(enqueued_local, release_at)
        self._record_release(key[0], stamped_true, enqueued_local, eligible_local)
        if self.on_release is not None:
            self.on_release(item, eligible_local)
        return item

    def _record_release(
        self, gateway_ts: int, stamped_true: int, enqueued_local: int, now_local: int
    ) -> None:
        # Paper definition: out of sequence iff this order's gateway
        # timestamp is earlier than that of the *preceding processed*
        # order.
        out_of_seq = self._last_released_ts is not None and gateway_ts < self._last_released_ts
        out_of_seq_true = (
            self._last_released_true is not None and stamped_true < self._last_released_true
        )
        self._last_released_ts = gateway_ts
        self._last_released_true = stamped_true
        if self.on_sample is not None:
            self.on_sample(
                SequencerSample(
                    gateway_timestamp=gateway_ts,
                    enqueued_local=enqueued_local,
                    dequeued_local=now_local,
                    out_of_sequence=out_of_seq,
                    out_of_sequence_true=out_of_seq_true,
                )
            )

    # ------------------------------------------------------------------
    # Release timer
    # ------------------------------------------------------------------
    def _arm(self, release_at_local: int) -> None:
        if (
            self._wakeup is not None
            and not self._wakeup.cancelled
            and self._wakeup_target <= release_at_local
        ):
            return
        if self._wakeup is not None:
            self._wakeup.cancel()
        self._wakeup = self.clock.schedule_at_local(release_at_local, self._fire)
        self._wakeup_target = release_at_local

    def _arm_or_notify(self) -> None:
        release_at = self._head_release_local()
        if release_at is None:
            return
        if release_at <= self.clock.now():
            self.on_eligible()
        else:
            self._arm(release_at)

    def _fire(self) -> None:
        self._wakeup = None
        if self._heap:
            self.on_eligible()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Items currently held."""
        return len(self._heap)

    def pending_items(self) -> List[Any]:
        """The held items themselves (unordered) -- lets the chaos
        invariant checker distinguish in-flight orders from lost ones."""
        return [entry[3] for entry in self._heap]

    def __repr__(self) -> str:
        return f"Sequencer(d_s={self.delay_ns}ns, pending={len(self._heap)})"
