"""Byte-identical output: every case of the benchmark's golden corpus, run
through ``hyperquot.cli.main`` in-process, must give its recorded exit code
and the sha256 of its recorded stdout.

``perfbench/golden.json`` maps each case (argv joined by single spaces) to
``[exit code, stdout sha256]``.  The cases run the way a benchmark pass runs
them: in one process, in corpus order, with stdout and stderr captured and
an argparse rejection read as its exit code.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from hyperquot import cli

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_golden_case_is_byte_identical():
    cases = json.loads(GOLDEN.read_text())["cases"]
    assert len(cases) > 600
    wrong = [
        (case, want, got)
        for case, want in cases.items()
        if (got := list(run_case(case.split()))) != want
    ]
    assert not wrong, f"{len(wrong)} of {len(cases)} cases differ, first: {wrong[:3]}"
