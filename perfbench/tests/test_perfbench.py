"""Tests of the benchmark's own parts: sweep sampling, golden corpus, span
self time and the traced pass."""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


def test_sweep_is_deterministic_per_seed(golden):
    first = workloads.cases("small_sweep", 7, golden)
    assert first == workloads.cases("small_sweep", 7, golden)
    assert first != workloads.cases("small_sweep", 8, golden)
    assert len(first) == workloads.SWEEP_SIZE
    assert len({" ".join(c) for c in first}) == len(first)


def test_case_generator_is_deterministic():
    a = [workloads.generate_case(random.Random(3)) for _ in range(50)]
    b = [workloads.generate_case(random.Random(3)) for _ in range(50)]
    assert a == b
    assert workloads.pool_digest(workloads.sweep_pool()) == workloads.pool_digest(
        workloads.sweep_pool()
    )


def test_every_case_has_a_golden_entry(golden):
    pool = workloads.sweep_pool()
    assert workloads.pool_digest(pool) == golden["pool_sha256"]
    fixed = [c for lst in workloads.FIXED.values() for c in lst]
    assert all(c in golden["cases"] for c in fixed + pool)
    strata = [i for group in golden["sweep_strata"] for i in group]
    assert sorted(strata) == list(range(len(pool)))
    assert len(golden["sweep_strata"]) == workloads.SWEEP_SIZE


def _replies_from_golden(golden, cases):
    return {
        "cases": [
            dict(zip(("rc", "sha256"), golden["cases"][" ".join(c)])) for c in cases
        ]
    }


def test_tampered_digest_is_a_failure(golden):
    cases = workloads.cases("motivic_large", 0, golden)
    reply = _replies_from_golden(golden, cases)
    assert run.count_failures(golden, cases, reply) == 0
    tampered = copy.deepcopy(golden)
    tampered["cases"][" ".join(cases[1])][1] = "0" * 64
    fail_ratio = run.count_failures(tampered, cases, reply) / len(cases)
    assert fail_ratio == pytest.approx(1 / len(cases))


def test_case_without_golden_must_exit_zero():
    empty = {"cases": {}}
    argv = ["info", "--genus", "0"]
    assert not run.case_failed(empty, argv, {"rc": 0, "sha256": ""})
    assert run.case_failed(empty, argv, {"rc": 2, "sha256": ""})
    assert run.case_failed(empty, argv, {"rc": None, "sha256": ""})


def test_self_time_on_synthetic_tree():
    spans = [
        ["cli.case", 0.0, 10.0, -1, 0, 1.0],  # 0: 1.0 s of leaf work
        ["a", 1.0, 4.0, 0, 0, 0.5],  # 1
        ["c", 2.0, 3.0, 1, 0, 0.0],  # 2
        ["b", 6.0, 9.0, 0, 0, 0.0],  # 3
        ["d", 8.0, 12.0, 3, 0, 0.0],  # 4: overruns its parent; clipped there
        ["cli.case", 20.0, 25.0, -1, 1, 0.0],  # 5
        ["e", 20.0, 22.0, 5, 1, 0.0],  # 6: overlaps its sibling
        ["e", 21.0, 23.0, 5, 1, 0.0],  # 7
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 2.0, 4.0, 2.0, 2.0, 2.0])
    metrics = tracer.layer_metrics(spans, {"epoly.mul_calls": 9})
    assert metrics["cli.overhead_s"] == pytest.approx(5.0)
    assert metrics["cli.overhead_calls"] == 2
    assert metrics["e_s"] == pytest.approx(4.0)
    assert metrics["epoly.mul_calls"] == 9


def test_traced_pass_matches_golden_and_repeats_its_counts(golden):
    cases = workloads.cases("small_sweep", 0, golden)[:12]
    counts = []
    for _ in range(2):
        _, reply = run.spawn_pass(cases, True)
        assert run.count_failures(golden, cases, reply) == 0
        metrics = tracer.layer_metrics(reply["trace"]["spans"], reply["trace"]["counters"])
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
        assert metrics["cli.overhead_calls"] == len(cases)
    assert counts[0] == counts[1]


def test_times_are_scaled_to_the_reference_host_speed():
    passes = [
        {"cases": [{"s": 2.0}, {"s": 1.0}], "peak_rss_mb": 10.0},
        {"cases": [{"s": 1.0}, {"s": 3.0}], "peak_rss_mb": 12.0},
    ]
    scale = run.host_scale([0.5, run.REFERENCE_S * 2, 0.9])
    assert scale == pytest.approx(0.5)
    metrics = run.end_to_end([0.1, 0.3, 0.2], passes, scale)
    assert metrics["wall_s"] == pytest.approx(1.0)  # fastest times 1.0 + 1.0, halved
    assert metrics["case_p50_s"] == pytest.approx(0.5)
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["peak_rss_mb"] == pytest.approx(11.0)  # memory is not scaled
    assert 0 < run.time_reference() < run.PASS_TIMEOUT_S
