"""Record the golden corpus and the baseline exact counts of the current code.

    python3 perfbench/record.py

Writes ``golden.json``: the exit code and stdout sha256 of every case of the
fixed workloads and of the sweep pool, and the pool split into cost strata
(one stratum per sweep case, cost measured here as the best of five runs).
Then writes ``baseline_counts.json``: the exact per-layer counts of one
traced pass of each workload at seed 0.  Re-record only when a change is
meant to alter output bytes or exit codes, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import time

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))
import worker  # noqa: E402  (imports hyperquot from src/)


def _digest(case: str, digests: dict) -> float:
    """Run a case, store its golden entry and return its run time."""
    t0 = time.perf_counter()
    result = worker.run_case(case.split())
    seconds = time.perf_counter() - t0
    if result["rc"] != 0:
        raise SystemExit(f"case exits {result['rc']}: {case}: {result['error']}")
    digests[case] = [result["rc"], result["sha256"]]
    return seconds


def record_golden() -> dict:
    digests: dict[str, list] = {}
    for lst in workloads.FIXED.values():
        for case in lst:
            _digest(case, digests)
    pool = workloads.sweep_pool()
    cost = [min(_digest(case, digests) for _ in range(5)) for case in pool]
    order = sorted(range(len(pool)), key=lambda i: cost[i])
    k = len(pool) // workloads.SWEEP_SIZE
    return {
        "pool_sha256": workloads.pool_digest(pool),
        "sweep_strata": [order[i : i + k] for i in range(0, len(order), k)],
        "cases": digests,
    }


def record_counts(golden: dict) -> dict:
    spec = json.loads(run.SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    out = {}
    for name in (w["name"] for w in spec["workloads"]):
        _, reply = run.spawn_pass(workloads.cases(name, 0, golden), True)
        metrics = tracer.layer_metrics(reply["trace"]["spans"], reply["trace"]["counters"])
        out[name] = {m: metrics[m] for m, u in units.items() if u in run.EXACT_UNITS}
    return out


def main() -> int:
    golden = record_golden()
    workloads.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    counts = {
        "note": "exact per-layer counts of one traced pass at seed 0, recorded with the golden corpus",
        "counts": record_counts(golden),
    }
    path = workloads.GOLDEN.with_name("baseline_counts.json")
    path.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
