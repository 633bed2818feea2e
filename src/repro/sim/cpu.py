"""CPU cost accounting and core pools.

Fig. 6b of the paper reports CPU cost in *number of cores* for the
matching engine, gateways, and participants as the ROS replication
factor grows.  We reproduce that by charging every simulated message
handler a service time; a host's core usage over a window is then

    cores_used = baseline_cores + busy_ns / elapsed_ns

where ``baseline_cores`` captures rate-independent overhead (polling
threads, the OS) that the paper's measurements include.

:class:`CorePool` additionally models *queueing* for compute: a host
with ``n`` cores processing messages whose aggregate service demand
approaches ``n`` cores develops a backlog, which is exactly the
mechanism behind two of the paper's results -- the throughput plateau
of Table 1 (serialized portfolio updates) and the latency degradation
for replication factors above 3 in Fig. 6a (dedup work crowding the
engine's ingress).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.sim.engine import Event, Simulator


class CpuAccountant:
    """Accumulates busy nanoseconds, per category and in total."""

    def __init__(self, baseline_cores: float = 0.0) -> None:
        self.baseline_cores = float(baseline_cores)
        self._busy_ns: Dict[str, int] = defaultdict(int)
        self.total_busy_ns: int = 0

    def charge(self, category: str, busy_ns: int) -> None:
        """Record ``busy_ns`` of work attributed to ``category``."""
        if busy_ns < 0:
            raise ValueError(f"cannot charge negative time: {busy_ns}")
        self._busy_ns[category] += busy_ns
        self.total_busy_ns += busy_ns

    def busy_ns(self, category: Optional[str] = None) -> int:
        """Busy time for one category, or in total."""
        if category is None:
            return self.total_busy_ns
        return self._busy_ns.get(category, 0)

    def categories(self) -> Dict[str, int]:
        """A copy of the per-category busy-time table."""
        return dict(self._busy_ns)

    def cores_used(self, elapsed_ns: int) -> float:
        """Average cores consumed over a window of ``elapsed_ns``."""
        if elapsed_ns <= 0:
            raise ValueError(f"elapsed window must be positive, got {elapsed_ns}")
        return self.baseline_cores + self.total_busy_ns / elapsed_ns

    def reset(self) -> None:
        """Zero all counters (start of a measurement window)."""
        self._busy_ns.clear()
        self.total_busy_ns = 0

    def __repr__(self) -> str:
        return f"CpuAccountant(baseline={self.baseline_cores}, busy_ns={self.total_busy_ns})"


class CorePool:
    """A bank of identical cores with FIFO dispatch.

    ``submit`` assigns the job to the earliest-free core; the job's
    callback fires when its service completes.  The gap between
    submission and service start is compute queueing delay, reported
    via :attr:`total_queue_ns` / :attr:`jobs`.
    """

    def __init__(self, sim: Simulator, cores: int) -> None:
        if cores < 1:
            raise ValueError(f"need at least one core, got {cores}")
        self.sim = sim
        self.cores = cores
        # Min-heap of times at which each core becomes free.
        self._free_at: List[int] = [0] * cores
        heapq.heapify(self._free_at)
        self.jobs: int = 0
        self.total_queue_ns: int = 0
        self.total_service_ns: int = 0

    def submit(self, service_ns: int, fn: Callable[..., None], *args: Any) -> Event:
        """Queue a job needing ``service_ns`` of compute; run ``fn`` on completion."""
        if service_ns < 0:
            raise ValueError(f"service time must be non-negative, got {service_ns}")
        now = self.sim.now
        free = heapq.heappop(self._free_at)
        start = now if free < now else free
        end = start + service_ns
        heapq.heappush(self._free_at, end)
        self.jobs += 1
        self.total_queue_ns += start - now
        self.total_service_ns += service_ns
        return self.sim.schedule_at(end, fn, *args)

    def backlog_ns(self) -> int:
        """How far the most-loaded core's commitments extend past now."""
        latest = max(self._free_at)
        return max(0, latest - self.sim.now)

    def mean_queue_us(self) -> float:
        """Average compute queueing delay per job, in microseconds."""
        if self.jobs == 0:
            return 0.0
        return self.total_queue_ns / self.jobs / 1_000

    def utilization(self, elapsed_ns: Optional[int] = None) -> float:
        """Fraction of core capacity consumed since time zero (or window)."""
        window = self.sim.now if elapsed_ns is None else elapsed_ns
        if window <= 0:
            return 0.0
        return self.total_service_ns / (window * self.cores)

    def __repr__(self) -> str:
        return f"CorePool(cores={self.cores}, jobs={self.jobs})"

