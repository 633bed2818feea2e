"""Direct probes for layers no workload makes dominant.

Each is a few hundred to a few thousand calls into a public function
with a no-op payload, so what is timed is the layer's fixed cost: one
barrier round-trip, one pool task, one cache get/put.  Medians are
reported; all of them together take under 5 s.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Dict

from repro.exp import ResultCache, run_parallel
from repro.sim.parallel import ConservativeShardRunner


class _NoopShard:
    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id

    def run_window(self, index, t_end, feedback):
        return {}

    def finish(self):
        return {}


def _noop_task(item):
    return item


def window_roundtrip_us(windows: int = 2000) -> float:
    """One barrier across 2 worker processes with nothing to compute."""
    samples = []
    with ConservativeShardRunner(_NoopShard, (), n_shards=2, jobs=2) as runner:
        for index in range(windows):
            started = time.perf_counter_ns()
            runner.window(index, index, None)
            samples.append(time.perf_counter_ns() - started)
        runner.finish()
    return statistics.median(samples) / 1e3


def pool_task_roundtrip_ms(tasks: int = 200, batch: int = 20) -> float:
    """Fork + pipe + join per task, two in flight (median over batches)."""
    samples = []
    for _ in range(tasks // batch):
        started = time.perf_counter_ns()
        results = run_parallel(_noop_task, list(range(batch)), jobs=2)
        samples.append((time.perf_counter_ns() - started) / batch)
        if not all(result.ok for result in results):
            raise RuntimeError("no-op pool task failed")
    return statistics.median(samples) / 1e6


def cache_get_put_us(root: Path, entries: int = 300) -> Dict[str, float]:
    """One result-sized entry written and read back on a fresh dir."""
    cache = ResultCache(str(root))
    result = {f"metric_{i}": i * 1.5 for i in range(40)}
    keys = [cache.key_for({"probe": i}, "probe-code") for i in range(entries)]
    put, get = [], []
    for key in keys:
        started = time.perf_counter_ns()
        cache.put(key, result)
        put.append(time.perf_counter_ns() - started)
    for key in keys:
        started = time.perf_counter_ns()
        if cache.get(key) != result:
            raise RuntimeError("cache probe read back a different result")
        get.append(time.perf_counter_ns() - started)
    return {"get_us": statistics.median(get) / 1e3, "put_us": statistics.median(put) / 1e3}
