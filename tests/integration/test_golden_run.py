"""Golden-run fixtures: the behavioral contract for performance work.

The committed JSON fixtures pin the *exact* output of deterministic
runs -- a small cluster with the default feature set, the chaos
``smoke`` scenario, and the operational counts of runs that drive every
one of them above zero.  Any change to event ordering, RNG draw sequence,
matching semantics, or metrics accounting shifts these numbers; a pure
performance optimization must reproduce them bit-for-bit.

Regenerate after an *intentional* behavior change with::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_run.py

and review the fixture diff like code.
"""

import json
import os
from pathlib import Path

import pytest

from repro.chaos.scenarios import available_scenarios, run_scenario
from repro.core.cluster import CloudExCluster
from repro.core.config import CloudExConfig
from tests.chaos.test_recovery import _run as run_replay
from tests.conftest import small_config

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("GOLDEN_REGEN") == "1"


def _normalize(value):
    """Round-trip through JSON so tuples/ints compare like the fixture."""
    return json.loads(json.dumps(value, sort_keys=True))


def _check(name: str, actual: dict) -> None:
    path = GOLDEN_DIR / name
    actual = _normalize(actual)
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {name}")
    expected = json.loads(path.read_text())
    assert actual == expected, (
        f"{name} drifted from the golden fixture -- if the behavior change "
        f"is intentional, regenerate with GOLDEN_REGEN=1 and review the diff"
    )


def test_small_cluster_matches_golden():
    cluster = CloudExCluster(small_config())
    cluster.add_default_workload(rate_per_participant=200.0)
    cluster.run(duration_s=0.6)
    summary = cluster.metrics.summary()
    summary["events_processed"] = cluster.sim.events_processed
    summary["d_s"] = cluster.exchange.current_sequencer_delay_ns()
    summary["d_h"] = cluster.exchange.d_h
    summary["rows"] = cluster.trade_table.row_count()
    summary["md_finalized_at_end"] = cluster.finalize_metrics()
    summary["cpu"] = sorted(cluster.cpu_report().items())
    _check("golden_small_cluster.json", summary)


def test_chaos_smoke_matches_golden():
    result = run_scenario("smoke")
    _check("golden_chaos_smoke.json", result.report.to_dict())


def test_counts_match_golden():
    """Every operational count, non-zero somewhere: the seven chaos
    scenarios drive ``chaos.*``, ``hr.late_pieces``, both ``net.dropped_*``
    and ``ros.duplicates_dropped``; the recovery replay configuration
    drives ``ros.confirmations_replayed``; a short DDP run drives both
    ``ddp.*_adjustments``."""
    counts = {
        f"chaos:{name}": run_scenario(name, seed=11).cluster.metrics.counts()
        for name, _ in available_scenarios()
    }
    counts["replay"] = run_replay(ttl_s=5.0)[0].metrics.counts()
    ddp = CloudExCluster(CloudExConfig(
        seed=5, n_participants=8, n_gateways=4, ddp_window=200,
        ddp_inbound_target=0.02, ddp_outbound_target=0.02,
    ))
    ddp.add_default_workload(rate_per_participant=300.0)
    ddp.run(duration_s=0.8)
    counts["ddp"] = ddp.metrics.counts()
    _check("golden_counts.json", counts)


def test_table1_saturation_matches_golden():
    """The Table-1 recipe at saturation -- the §4 testbed (48 / 16 / 100),
    1 700 orders/s/participant offered, no cancels, 0.15 s -- at 1 and 4
    shards: the heaviest event mix tier-1 runs, and the one multi-shard
    pin."""
    work = {}
    for shards in (1, 4):
        cluster = CloudExCluster(CloudExConfig(
            seed=2021, n_participants=48, n_gateways=16, n_symbols=100,
            n_shards=shards, orders_per_participant_per_s=450.0,
            subscriptions_per_participant=2, snapshot_interval_ms=100.0,
            market_order_fraction=0.05, cancel_fraction=0.0,
        ))
        cluster.add_default_workload(rate_per_participant=1_700.0)
        cluster.run(duration_s=0.15)
        work[f"table1_shards_{shards}"] = {
            "events_processed": cluster.sim.events_processed,
            "throughput_per_s": round(cluster.metrics.throughput_per_s(), 3),
        }
    _check("golden_table1_saturation.json", work)
