"""Tests for the conservative-synchronization shard runner.

The determinism contract under test: for any deterministic shard
factory, ``jobs=1`` (inline) and ``jobs>=2`` (processes) produce
identical window results and final summaries -- including across a
worker crash, which is recovered by respawn + history replay.
"""

import os

import pytest

from repro.sim.parallel import ConservativeShardRunner, ShardWorkerError
from tests.procutil import requires_proc, survivors_of_killed_owner


class ToyShard:
    """Deterministic stateful shard: state evolves from (shard_id,
    window history, feedback history) only, like a real shard program."""

    def __init__(self, base: int, shard_id: int) -> None:
        self.shard_id = shard_id
        self.state = shard_id * 1000 + base
        self.windows = 0

    def run_window(self, index, t_end, feedback):
        self.state = (self.state * 31 + index * 7 + t_end + (feedback or 0)) % 1_000_003
        self.windows += 1
        return {"shard": self.shard_id, "state": self.state}

    def finish(self):
        return {"shard": self.shard_id, "final": self.state, "windows": self.windows}


def _make_toy(base, shard_id):
    return ToyShard(base, shard_id)


class CrashingShard(ToyShard):
    """Crashes the whole worker process once, at a chosen window, unless
    a sentinel file exists; the sentinel is dropped just before dying so
    the respawned worker's replay survives."""

    def __init__(self, base, sentinel, crash_window, shard_id):
        super().__init__(base, shard_id)
        self.sentinel = sentinel
        self.crash_window = crash_window

    def run_window(self, index, t_end, feedback):
        if index == self.crash_window and self.shard_id == 0 and not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as fh:
                fh.write("crashed")
            os._exit(1)
        return super().run_window(index, t_end, feedback)


def _make_crashing(base, sentinel, crash_window, shard_id):
    return CrashingShard(base, sentinel, crash_window, shard_id)


class AlwaysCrashShard(ToyShard):
    def run_window(self, index, t_end, feedback):
        os._exit(1)


def _make_always_crashing(base, shard_id):
    return AlwaysCrashShard(base, shard_id)


class RaisingShard(ToyShard):
    def run_window(self, index, t_end, feedback):
        if index == 1 and self.shard_id == 1:
            raise ValueError("model bug in shard 1")
        return super().run_window(index, t_end, feedback)


def _make_raising(base, shard_id):
    return RaisingShard(base, shard_id)


def _drive(runner, n_windows=5):
    feedback = 0
    results = []
    for w in range(n_windows):
        window = runner.window(w, (w + 1) * 100, feedback)
        feedback = sum(r["state"] for r in window) % 997
        results.append(window)
    return results, runner.finish()


class TestInlineRunner:
    def test_results_in_shard_order(self):
        with ConservativeShardRunner(_make_toy, (7,), n_shards=3, jobs=1) as runner:
            results, finals = _drive(runner)
        assert [r["shard"] for r in results[0]] == [0, 1, 2]
        assert [f["shard"] for f in finals] == [0, 1, 2]
        assert all(f["windows"] == 5 for f in finals)

    def test_jobs_clamped_to_shards(self):
        runner = ConservativeShardRunner(_make_toy, (7,), n_shards=2, jobs=16)
        try:
            assert runner.jobs == 2
        finally:
            runner.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            ConservativeShardRunner(_make_toy, (7,), n_shards=0)
        # Too many workers is clamped to one per shard; none is an error,
        # not a quiet inline run.
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ConservativeShardRunner(_make_toy, (7,), n_shards=2, jobs=0)

    def test_finish_is_terminal(self):
        with ConservativeShardRunner(_make_toy, (7,), n_shards=1, jobs=1) as runner:
            _drive(runner, n_windows=1)
            with pytest.raises(RuntimeError):
                runner.window(9, 900, 0)


class TestProcessRunner:
    def test_process_run_matches_inline(self):
        with ConservativeShardRunner(_make_toy, (7,), n_shards=5, jobs=1) as inline:
            inline_results, inline_finals = _drive(inline)
        with ConservativeShardRunner(_make_toy, (7,), n_shards=5, jobs=3) as procs:
            proc_results, proc_finals = _drive(procs)
        assert proc_results == inline_results
        assert proc_finals == inline_finals

    def test_uneven_shard_assignment(self):
        # 5 shards over 2 workers: worker 0 owns {0, 2, 4}, worker 1
        # owns {1, 3}; results must still come back in shard-id order.
        with ConservativeShardRunner(_make_toy, (3,), n_shards=5, jobs=2) as runner:
            assert runner._assignment == [[0, 2, 4], [1, 3]]
            results, finals = _drive(runner, n_windows=2)
        assert [r["shard"] for r in results[0]] == [0, 1, 2, 3, 4]
        assert [f["shard"] for f in finals] == [0, 1, 2, 3, 4]

    def test_crash_is_recovered_by_replay(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        with ConservativeShardRunner(_make_toy, (7,), n_shards=4, jobs=1) as inline:
            expected_results, expected_finals = _drive(inline)
        with ConservativeShardRunner(
            _make_crashing, (7, sentinel, 2), n_shards=4, jobs=2
        ) as crashy:
            results, finals = _drive(crashy)
            assert crashy.restarts == 1
        assert os.path.exists(sentinel)
        # The recovered run is byte-identical to the undisturbed one:
        # replay rebuilt the lost worker's state deterministically.
        assert results == expected_results
        assert finals == expected_finals

    def test_crash_on_first_window(self, tmp_path):
        # Crash before any history exists: recovery is pure respawn.
        sentinel = str(tmp_path / "crashed-early")
        with ConservativeShardRunner(_make_toy, (7,), n_shards=2, jobs=1) as inline:
            expected = _drive(inline, n_windows=3)
        with ConservativeShardRunner(
            _make_crashing, (7, sentinel, 0), n_shards=2, jobs=2
        ) as crashy:
            got = _drive(crashy, n_windows=3)
            assert crashy.restarts == 1
        assert got == expected

    def test_restart_budget_exhaustion(self):
        # Every attempt crashes, so recovery burns through the budget.
        runner = ConservativeShardRunner(
            _make_always_crashing, (7,), n_shards=2, jobs=2, max_restarts=1
        )
        try:
            with pytest.raises(ShardWorkerError, match="restart budget"):
                _drive(runner, n_windows=1)
        finally:
            runner.close()

    def test_model_bug_raises_not_retried(self):
        runner = ConservativeShardRunner(_make_raising, (7,), n_shards=2, jobs=2)
        try:
            runner.window(0, 100, 0)
            with pytest.raises(ShardWorkerError, match="model bug"):
                runner.window(1, 200, 0)
            assert runner.restarts == 0
        finally:
            runner.close()

    def test_close_is_idempotent(self):
        runner = ConservativeShardRunner(_make_toy, (7,), n_shards=2, jobs=2)
        runner.close()
        runner.close()

    @requires_proc
    def test_workers_exit_when_the_coordinator_is_killed(self):
        # Regression: shard workers kept their inherited copy of the
        # coordinator's pipe ends open, never read EOF, and outlived a
        # SIGKILLed coordinator indefinitely.
        script = (
            "import time\n"
            "from repro.sim.parallel import ConservativeShardRunner\n"
            "from tests.sim.test_parallel import _make_toy\n"
            "runner = ConservativeShardRunner(_make_toy, (7,), n_shards=3, jobs=3)\n"
            "assert len(runner.window(0, 100, 0)) == 3\n"
            "print('ready', flush=True)\n"
            "time.sleep(60)\n"
        )
        assert survivors_of_killed_owner(script, n_workers=3) == []
