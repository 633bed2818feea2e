"""The sweep harness: spec expansion, pool, cache, and determinism.

The flagship property lives in ``TestJobsInvariance``: a sweep's
aggregated JSON is byte-identical whether it ran inline, on four
workers, or from the cache -- worker count and cache state must be
unobservable in results.
"""

import json
import os
import random
import signal
import time

import pytest

from repro.exp import (
    ResultCache,
    SweepSpec,
    WorkerPool,
    code_version_hash,
    run_parallel,
    run_sweep,
)
from repro.exp.runner import sweep_table
from repro.sim.rng import derive_seed
from tests.procutil import (
    children_of,
    requires_proc,
    survivors,
    survivors_of_killed_owner,
)

# ----------------------------------------------------------------------
# Spec expansion
# ----------------------------------------------------------------------


def _tiny_grid():
    return [{"n_shards": 1}, {"n_shards": 2}]


def _tiny_spec(**kwargs):
    defaults = dict(
        name="tiny",
        grid=_tiny_grid(),
        seeds=3,
        master_seed=5,
        warmup_s=0.05,
        duration_s=0.1,
        rate_per_participant=100.0,
        base=dict(n_participants=4, n_gateways=2, n_symbols=4,
                  subscriptions_per_participant=2),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_expansion_shape_and_order(self):
        tasks = _tiny_spec().expand()
        assert len(tasks) == 6  # 2 points x 3 seeds, grid-major
        assert [t.point["n_shards"] for t in tasks] == [1, 1, 1, 2, 2, 2]
        assert [t.index for t in tasks] == list(range(6))

    def test_derived_seeds_depend_on_identity_not_position(self):
        tasks = _tiny_spec().expand()
        # Reversing the grid must not change any point's seeds.
        reversed_tasks = _tiny_spec(grid=list(reversed(_tiny_grid()))).expand()
        seeds_by_point = {t.point["n_shards"]: t.seed for t in tasks if t.key.endswith("rep0")}
        seeds_reversed = {
            t.point["n_shards"]: t.seed for t in reversed_tasks if t.key.endswith("rep0")
        }
        assert seeds_by_point == seeds_reversed
        # And they are exactly the documented derivation.
        for task in tasks:
            assert task.seed == derive_seed(5, task.key)

    def test_replicates_get_distinct_seeds(self):
        tasks = _tiny_spec().expand()
        assert len({t.seed for t in tasks}) == len(tasks)

    def test_explicit_seed_list_used_verbatim(self):
        tasks = _tiny_spec(seeds=[2021, 7]).expand()
        assert [t.seed for t in tasks] == [2021, 7, 2021, 7]
        assert all(t.overrides["seed"] == t.seed for t in tasks)

    def test_reserved_keys_override_spec_defaults(self):
        spec = _tiny_spec(grid=[{"n_shards": 1, "rate_per_participant": 250.0,
                                 "warmup_s": 0.2}])
        task = spec.expand()[0]
        assert task.rate_per_participant == 250.0
        assert task.warmup_s == 0.2
        assert task.duration_s == 0.1  # spec default kept
        assert "rate_per_participant" not in task.overrides

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="not a CloudExConfig field"):
            _tiny_spec(grid=[{"n_shardz": 1}]).expand()

    def test_seed_override_rejected(self):
        with pytest.raises(ValueError, match="SweepSpec.seeds"):
            _tiny_spec(grid=[{"seed": 3}]).expand()

    def test_chaos_rejected(self):
        from repro.chaos.schedule import FaultSchedule

        with pytest.raises(ValueError, match="chaos"):
            _tiny_spec(base=dict(chaos=FaultSchedule())).expand()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _tiny_spec(grid=[]).expand()

    def test_task_config_builds_and_validates(self):
        task = _tiny_spec().expand()[0]
        config = task.build_config()
        assert config.seed == task.seed
        assert config.n_shards == 1


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------


def _square(x):
    return x * x


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x


def _crash_on_two(x):
    if x == 2:
        os._exit(13)  # simulate a segfault/OOM kill: no exception, no result
    return x


def _sleep_forever(x):
    time.sleep(60)
    return x


def _sigkill_self_on_one(x):
    if x == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _pid(_):
    return os.getpid()


def _hang_on_zero(x):
    if x == 0:
        time.sleep(60)
    return os.getpid()


def _square_or_crash(x):
    # Seeded by pid as well as item, so the retry on the replacement
    # worker draws again.
    if random.Random(os.getpid() * 1_000_003 + x).random() < 0.15:
        os._exit(7)
    return x * x


class TestRunParallel:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_results_align_with_items(self, jobs):
        results = run_parallel(_square, [3, 1, 4, 1, 5], jobs=jobs)
        assert [r.value for r in results] == [9, 1, 16, 1, 25]
        assert all(r.ok for r in results)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exceptions_reported_not_raised(self, jobs):
        results = run_parallel(_fail_on_odd, [2, 3, 4], jobs=jobs, retries=0)
        assert [r.ok for r in results] == [True, False, True]
        assert "odd input 3" in results[1].error

    def test_worker_crash_is_retried_then_reported(self):
        results = run_parallel(_crash_on_two, [1, 2, 3], jobs=2, retries=1)
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].attempts == 2  # re-queued once, then reported
        assert "crash" in results[1].error
        # The worker is joined before its status is read ("exit code
        # None" otherwise, most of the time).
        assert "exit code 13" in results[1].error

    def test_killed_worker_reports_its_signal(self):
        results = run_parallel(_sigkill_self_on_one, [0, 1], jobs=2, retries=0)
        assert [r.ok for r in results] == [True, False]
        assert "exit code -9" in results[1].error

    def test_crash_does_not_sink_other_tasks(self):
        results = run_parallel(_crash_on_two, list(range(8)), jobs=3, retries=0)
        assert sum(r.ok for r in results) == 7
        assert not results[2].ok

    def test_timeout_terminates_and_reports(self):
        results = run_parallel(
            _sleep_forever, [0], jobs=2, timeout_s=0.3, retries=0
        )
        assert not results[0].ok
        assert results[0].timed_out

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            run_parallel(_square, [1], jobs=0)
        with pytest.raises(ValueError):
            run_parallel(_square, [1], retries=-1)


class TestWorkerPool:
    def test_workers_are_reused_across_tasks_and_maps(self):
        with WorkerPool(2) as pool:
            first = {r.value for r in pool.map(_pid, range(20))}
            second = {r.value for r in pool.map(_pid, range(20))}
            assert len(first | second) == 2  # the same two processes throughout
            assert os.getpid() not in first
            assert pool.stats == {
                "spawned": 2, "respawned": 0, "tasks": 40, "crashes": 0, "timeouts": 0,
            }

    def test_jobs_1_runs_inline_without_processes(self):
        with WorkerPool(1) as pool:
            assert [r.value for r in pool.map(_pid, range(3))] == [os.getpid()] * 3
            assert pool.stats["spawned"] == 0 and pool.stats["tasks"] == 3

    def test_crashed_worker_is_replaced_and_pool_keeps_serving(self):
        with WorkerPool(2) as pool:
            before = {r.value for r in pool.map(_pid, range(8))}
            results = pool.map(_crash_on_two, [1, 2, 3], retries=0)
            assert [r.ok for r in results] == [True, False, True]
            after = pool.map(_pid, range(8))
            assert all(r.ok for r in after)
            assert len({r.value for r in after} - before) <= 1  # one replacement
            stats = pool.stats
            assert (stats["crashes"], stats["respawned"], stats["spawned"]) == (1, 1, 3)

    @requires_proc
    def test_hung_worker_is_terminated_and_replaced(self):
        with WorkerPool(2) as pool:
            before = set(children_of(os.getpid()))
            results = pool.map(_hang_on_zero, [0, 1, 2, 3], timeout_s=0.3, retries=0)
            assert results[0].timed_out and not results[0].ok
            assert [r.ok for r in results[1:]] == [True, True, True]
            # All three ran on the worker that was not hung...
            assert len({r.value for r in results[1:]}) == 1
            # ...the hung one is gone, and its replacement takes tasks.
            after = set(children_of(os.getpid()))
            (killed,) = before - after
            assert survivors([killed], timeout_s=0.0) == []
            assert {r.value for r in pool.map(_pid, range(8))} <= after
            stats = pool.stats
            assert (stats["timeouts"], stats["respawned"]) == (1, 1)

    @requires_proc
    def test_close_is_idempotent_and_leaves_no_child(self):
        before = set(children_of(os.getpid()))
        pool = WorkerPool(3)
        workers = set(children_of(os.getpid())) - before
        assert len(workers) == 3
        pool.close()
        pool.close()
        assert survivors(workers, timeout_s=0.0) == []  # close() joins
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_square, [1])

    @requires_proc
    def test_workers_exit_when_their_owner_is_killed(self):
        script = (
            "import time\n"
            "from repro.exp.pool import WorkerPool\n"
            "pool = WorkerPool(3)\n"
            "assert [r.value for r in pool.map(abs, [-1, -2, -3])] == [1, 2, 3]\n"
            "print('ready', flush=True)\n"
            "time.sleep(60)\n"
        )
        # Each worker reads EOF on its own pipe, which it can only do
        # because it closed every inherited copy of the owner's pipe ends.
        assert survivors_of_killed_owner(script, n_workers=3) == []

    def test_stress_more_workers_than_cores_with_random_crashes(self):
        items = list(range(300))
        started = time.monotonic()
        with WorkerPool(min(3 * (os.cpu_count() or 2), 32)) as pool:
            results = pool.map(_square_or_crash, items, retries=12)
            stats = pool.stats
        assert time.monotonic() - started < 60.0
        # Aligned: slot i holds item i's answer whichever worker, and
        # whichever attempt, produced it.
        assert [r.value for r in results] == [x * x for x in items]
        assert stats["crashes"] > 0
        assert stats["crashes"] == stats["respawned"]
        assert stats["tasks"] == len(items) + stats["crashes"]
        assert sum(r.attempts for r in results) == stats["tasks"]


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = cache.key_for({"a": 1}, "codev")
        assert cache.get(key) is None
        cache.put(key, {"x": 2.5})
        assert cache.get(key) == {"x": 2.5}

    def test_key_covers_payload_and_code_version(self):
        cache = ResultCache()
        base = cache.key_for({"a": 1}, "v1")
        assert cache.key_for({"a": 2}, "v1") != base
        assert cache.key_for({"a": 1}, "v2") != base
        assert cache.key_for({"a": 1}, "v1") == base

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key_for({"a": 1}, "v")
        cache.put(key, {"ok": 1})
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None
        assert cache.get(key) is None  # removed, stays a miss

    def test_code_version_is_stable_within_process(self):
        assert code_version_hash() == code_version_hash()


class TestCacheEviction:
    @staticmethod
    def _fill(cache, tmp_path, n):
        """Put ``n`` entries with strictly increasing mtimes."""
        keys = []
        for i in range(n):
            key = cache.key_for({"entry": i}, "v")
            cache.put(key, {"value": i})
            os.utime(tmp_path / f"{key}.json", ns=(0, (i + 1) * 1_000_000_000))
            keys.append(key)
        return keys

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_bytes=1)
        keys = self._fill(cache, tmp_path, 3)
        evicted = cache.prune()
        assert evicted == 2
        assert cache.evicted == 2
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is None
        # The newest entry always survives, even over budget: evicting
        # the result just computed would make the cache useless.
        assert cache.get(keys[2]) == {"value": 2}

    def test_prune_is_a_noop_under_budget(self, tmp_path):
        cache = ResultCache(str(tmp_path))  # default 512 MiB budget
        keys = self._fill(cache, tmp_path, 3)
        assert cache.prune() == 0
        assert all(cache.get(k) is not None for k in keys)

    def test_put_triggers_pruning(self, tmp_path):
        # Pre-populate an oversized directory with a separate handle,
        # then a fresh cache's first put must prune it back to budget.
        seed_cache = ResultCache(str(tmp_path))
        self._fill(seed_cache, tmp_path, 3)
        cache = ResultCache(str(tmp_path), max_bytes=1)
        key = cache.key_for({"entry": "new"}, "v")
        cache.put(key, {"value": "new"})
        assert cache.evicted >= 2
        assert cache.get(key) == {"value": "new"}

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(str(tmp_path), max_bytes=0)


# ----------------------------------------------------------------------
# End-to-end: the jobs-invariance and caching contracts
# ----------------------------------------------------------------------


def _doc_bytes(outcome):
    return json.dumps(outcome.document, indent=2, sort_keys=True)


class TestJobsInvariance:
    def test_jobs_1_vs_4_byte_identical_and_cache_executes_zero(self, tmp_path):
        spec = _tiny_spec()  # 2 points x 3 seeds
        serial = run_sweep(spec, jobs=1, cache=ResultCache(str(tmp_path / "cache1")))
        parallel = run_sweep(spec, jobs=4, cache=ResultCache(str(tmp_path / "cache2")))
        assert serial.executed == 6 and parallel.executed == 6
        assert serial.ok and parallel.ok
        assert _doc_bytes(serial) == _doc_bytes(parallel)

        # A cached re-run executes zero tasks and returns the same doc.
        cached = run_sweep(spec, jobs=4, cache=ResultCache(str(tmp_path / "cache1")))
        assert cached.executed == 0
        assert cached.from_cache == 6
        assert _doc_bytes(cached) == _doc_bytes(serial)

    def test_one_warm_pool_runs_different_sweeps_byte_identically(self):
        # A worker that has run other tasks before must be unobservable:
        # two different sweeps back to back through the same two
        # processes, each against its inline run.
        specs = [_tiny_spec(seeds=2), _tiny_spec(name="other", seeds=2, master_seed=9)]
        with WorkerPool(2) as pool:
            pooled = [run_sweep(spec, pool=pool) for spec in specs]
            assert pool.stats == {
                "spawned": 2, "respawned": 0, "tasks": 8, "crashes": 0, "timeouts": 0,
            }
        inline = [run_sweep(spec, jobs=1) for spec in specs]
        assert [_doc_bytes(o) for o in pooled] == [_doc_bytes(o) for o in inline]
        assert _doc_bytes(pooled[0]) != _doc_bytes(pooled[1])

    def test_no_cache_skips_read_and_write(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = _tiny_spec(grid=[{"n_shards": 1}], seeds=1)
        first = run_sweep(spec, jobs=1, cache=ResultCache(str(tmp_path / "warm")))
        assert first.executed == 1
        uncached = run_sweep(spec, jobs=1)
        assert uncached.executed == 1 and uncached.from_cache == 0
        assert [p.name for p in tmp_path.iterdir()] == ["warm"]  # no .repro-cache/ in the cwd
        assert _doc_bytes(uncached) == _doc_bytes(first)

    def test_document_excludes_execution_details(self):
        outcome = run_sweep(_tiny_spec(grid=[{"n_shards": 1}], seeds=1), jobs=1)
        text = _doc_bytes(outcome)
        assert "wall" not in text
        assert outcome.wall_s > 0

    def test_failed_point_reported_without_sinking_sweep(self, tmp_path):
        # duration 0 still runs; an invalid topology fails validation
        # inside the worker.  gateway_failover without ack timeouts is
        # rejected by CloudExConfig.validate -- at task-build time in
        # the worker, not at expansion time.
        spec = _tiny_spec(
            grid=[{"n_shards": 1}, {"gateway_failover": True}],
            seeds=1,
        )
        outcome = run_sweep(spec, jobs=1, retries=0)
        assert not outcome.ok
        assert len(outcome.failures) == 1
        entries = outcome.document["points"]
        assert [e["failed"] for e in entries] == [False, True]
        assert entries[1]["result"] is None

    def test_sweep_table_renders_failures_and_values(self):
        spec = _tiny_spec(grid=[{"n_shards": 1}], seeds=1)
        outcome = run_sweep(spec, jobs=1)
        table = sweep_table(outcome.document, columns=("throughput_per_s",))
        assert "n_shards" in table and "seed" in table
        assert "throughput_per_s" in table
