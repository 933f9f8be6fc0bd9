"""Byte-identical output: every case of the benchmark's golden corpus, run
through ``hyperquot.cli.main`` in-process, must give its recorded exit code
and the sha256 of its recorded stdout.

``perfbench/golden.json`` maps each case (argv joined by single spaces) to
``[exit code, stdout sha256]``.  The cases run the way a benchmark pass runs
them: in one process, in corpus order, with stdout and stderr captured.  A
refused input exits 2 through ``cli.InputError``, which ``main`` returns;
only ``--help`` raises ``SystemExit``, read as its exit code.  The corpus
also checks that a series walk keeps one stride (``formulas._walk_stride``).
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from hyperquot import cli, epoly, formulas

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


def assert_corpus_is_byte_identical():
    cases = json.loads(GOLDEN.read_text())["cases"]
    assert len(cases) > 600
    wrong = [
        (case, want, got)
        for case, want in cases.items()
        if (got := list(run_case(case.split()))) != want
    ]
    assert not wrong, f"{len(wrong)} of {len(cases)} cases differ, first: {wrong[:3]}"


def test_every_golden_case_is_byte_identical(monkeypatch):
    # and every value of a walk keeps the walk's stride: no repack inside a
    # walk changes a stride, as none of the corpus's bands outgrows 32
    strides, depth, walks = [], [], []
    repack, walk = epoly._repack, formulas._sigma_series

    def spy_repack(n, k1, w1, k, w):
        if depth:
            strides.append((w1, w))
        return repack(n, k1, w1, k, w)

    def spy_walk(*args):
        depth.append(1)
        walks.append(1)
        try:
            return walk(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(epoly, "_repack", spy_repack)
    monkeypatch.setattr(formulas, "_sigma_series", spy_walk)
    assert_corpus_is_byte_identical()
    assert len(walks) > 500 and strides
    assert [(w1, w) for w1, w in strides if w1 != w] == []


def test_golden_digests_hold_under_a_loose_walk_stride(monkeypatch):
    # a walk stride below the walk's band bound costs repacks, never a
    # coefficient: the values widen to the coarse stride as their bands grow
    monkeypatch.setattr(formulas, "_walk_stride", lambda live: 2)
    assert_corpus_is_byte_identical()
