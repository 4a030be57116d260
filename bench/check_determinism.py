"""Check that traced runs repeat their counters exactly.

    python3 bench/check_determinism.py

Run from the root of a source checkout.  For each workload it makes two
short traced runs with the same seed and compares every per-layer metric
that counts work (units ``count``, ``ratio`` and ``B``): evaluations,
iterations, eigen-solves, cache hits, map cells and the rest.  Exits 1 and
names the metrics that differ, else exits 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import WORKLOADS  # noqa: E402

SEED = 7
COUNTED_UNITS = ("count", "ratio", "B")


def counters(workload: str) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in COUNTED_UNITS}


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        first, second = counters(workload), counters(workload)
        differ = sorted(k for k in first if first[k] != second.get(k))
        if differ or first.keys() != second.keys():
            status = 1
            print(f"{workload}: counters differ: " + ", ".join(
                f"{k} {first[k]} vs {second.get(k)}" for k in differ))
        else:
            print(f"{workload}: {len(first)} counters repeat exactly")
    return status


if __name__ == "__main__":
    sys.exit(main())
