"""Benchmark of the hyperquot CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from ``src/``.
Each pass runs a workload's whole case list in a fresh worker interpreter
(``worker.py``), so the package's caches start cold per pass and persist
across the cases of that pass.  Passes repeat until ``--seconds`` have gone
by.  Every case's exit code and stdout digest are checked against
``golden.json``.  After each pass ``reference.py`` runs in fresh
interpreters, and the end-to-end times are scaled by its fastest run
(``host_scale``).

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` untraced and traced passes alternate
and the result holds the per-layer metrics of the traced passes
(``tracer.py``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SPANS_DIR = ROOT / ".perfbench"

SETUP_PROBES = 8
# Seconds ``reference.py`` takes on a quiet moment of the 2-vCPU host the
# benchmark was built on; times are reported at that host speed.
REFERENCE_S = 0.11
# Reference runs after each pass: the fastest of them must be as steady as
# the fastest case times it scales.
REFERENCE_RUNS = 2
PASS_TIMEOUT_S = 150
EXACT_UNITS = ("count", "bits", "bytes")


class BenchError(RuntimeError):
    """A worker did not start or did not answer."""


def spawn_pass(cases: list[list[str]], trace: bool) -> tuple[float, dict]:
    """Start a worker, time it until it is ready, run one pass in it.
    Returns the set-up time and the worker's reply."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # An installed package has its bytecode compiled once; let the warm-up
    # worker write it rather than compile the package in every worker.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        request = json.dumps({"cases": cases, "trace": trace}) + "\n"
        out, err = proc.communicate(request, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass took longer than {PASS_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return setup, json.loads(out)


def time_reference() -> float:
    """Run ``reference.py`` in a fresh interpreter; its compute time."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "reference.py")],
            capture_output=True, text=True, cwd=ROOT, timeout=PASS_TIMEOUT_S,
        )
        return float(done.stdout)
    except (subprocess.TimeoutExpired, ValueError) as exc:
        raise BenchError(f"reference run failed: {exc}") from exc


def host_scale(references: list[float]) -> float:
    """The factor that takes the run's times to the host speed at which
    ``reference.py`` takes ``REFERENCE_S``.  Other tenants of a shared host
    slow it for minutes at a time, longer than a run; the fastest case
    times and the fastest reference time of one run are slowed alike, so
    their ratio holds still while both drift."""
    return REFERENCE_S / min(references)


def case_failed(golden: dict, argv: list[str], result: dict) -> bool:
    """A case fails if it raised, or if its exit code or stdout digest
    differs from the golden one.  A case with no golden entry fails unless
    it exited 0."""
    want = golden["cases"].get(" ".join(argv))
    if result["rc"] is None:
        return True
    if want is None:
        return result["rc"] != 0
    return [result["rc"], result["sha256"]] != want


def count_failures(golden: dict, cases: list[list[str]], reply: dict) -> int:
    failed = 0
    for argv, result in zip(cases, reply["cases"]):
        if case_failed(golden, argv, result):
            failed += 1
            print(f"FAILED: {' '.join(argv)}: {result}", file=sys.stderr)
    return failed


def fastest_cases(passes: list[dict]) -> list[float]:
    """Each case's fastest time over the passes.  Other work on a shared
    host only ever adds time, so the fastest time is the steadiest estimate
    of the code's own cost."""
    return [min(p["cases"][i]["s"] for p in passes) for i in range(len(passes[0]["cases"]))]


def end_to_end(setups: list[float], passes: list[dict], scale: float) -> dict[str, float]:
    """``wall_s`` sums the fastest case times over the case list; set-up
    time and memory are medians.  Times are scaled to the reference host
    speed."""
    per_case = [t * scale for t in fastest_cases(passes)]
    return {
        "setup_s": statistics.median(setups) * scale,
        "wall_s": sum(per_case),
        "case_p50_s": statistics.median(per_case),
        "case_p90_s": statistics.quantiles(per_case, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(metric_units: dict[str, str], untraced: list[dict], traced: list[dict]):
    """Medians of the per-layer metrics over the traced passes, and the
    names of exact counts that differ between passes."""
    layers = [
        tracer.layer_metrics(p["trace"]["spans"], p["trace"]["counters"]) for p in traced
    ]
    values, unsteady = {}, []
    for name, unit in metric_units.items():
        if name == "trace.overhead_ratio":
            values[name] = sum(fastest_cases(traced)) / sum(fastest_cases(untraced))
            continue
        seen = [m[name] for m in layers]
        if unit in EXACT_UNITS and len(set(seen)) > 1:
            unsteady.append(name)
        values[name] = statistics.median(seen)
    return values, unsteady


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    golden = workloads.load_golden()
    cases = workloads.cases(name, seed, golden)
    spawn_pass([], False)  # fills the bytecode and file caches, unmeasured
    setups = [spawn_pass([], False)[0] for _ in range(SETUP_PROBES)]
    untraced, traced, references = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while (
        not untraced
        or time.perf_counter() < deadline
        or (trace and len(traced) < 2)
    ):
        traced_pass = trace and len(traced) < len(untraced)
        setup, reply = spawn_pass(cases, traced_pass)
        setups.append(setup)
        (traced if traced_pass else untraced).append(reply)
        references += [time_reference() for _ in range(REFERENCE_RUNS)]
        attempted += len(cases)
        failed += count_failures(golden, cases, reply)

    correct = failed == 0
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, unsteady = per_layer(units, untraced, traced)
        if unsteady:
            correct = False
            print(f"exact counts differ between traced passes: {unsteady}", file=sys.stderr)
        SPANS_DIR.mkdir(exist_ok=True)
        (SPANS_DIR / f"spans-{name}.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "case", "leaf_s"],
            "cases": [" ".join(c) for c in cases],
            "spans": traced[-1]["trace"]["spans"],
        }))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(setups, untraced, host_scale(references))
    print(
        f"workload {name} seed {seed}: {len(cases)} cases, {len(untraced)} untraced "
        f"and {len(traced)} traced passes, {len(setups)} set-ups, "
        f"host scale {host_scale(references):.3f}"
    )
    for metric, unit in units.items():
        print(f"  {metric:40s} {values[metric]:>16.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def main(argv=None) -> int:
    if not (SRC / "hyperquot" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: no hyperquot source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload != "all":
        names = [args.workload]
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
