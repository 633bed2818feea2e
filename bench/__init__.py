"""The repo benchmark: four workloads over both exchange stacks and the
control plane, end-to-end metrics at reference machine speed, and a
per-layer traced run taken from outside the program.

``BENCHMARK.json`` at the repo root is the single source of truth for
workload names, metric names, units, directions and bounds; this
package reads it rather than repeating it.  See ``bench/README.md``.

The package imports only the program's stable entry points
(``CloudExConfig``/``CloudExCluster``, ``ShardRunConfig``/``run_shardrun``,
``python -m repro serve`` + its HTTP API, ``verify_pack``,
``run_parallel``, ``ResultCache``, ``ConservativeShardRunner``); every
other name it touches is listed in :mod:`bench.layers` and is optional.
"""

import json
import sys
from pathlib import Path

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test lives in ``src/``; the benchmark command names
#: only ``bench``, so the path is added here instead of via PYTHONPATH.
SRC = ROOT / "src"
#: Everything a run writes (traces, result files, serve data dirs).
OUT = ROOT / "bench" / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def load_benchmark() -> dict:
    """``BENCHMARK.json``: workload and metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
