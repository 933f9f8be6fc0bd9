"""One benchmark pass in a fresh interpreter.

The worker imports ``hyperquot.cli``, writes ``ready`` on stdout, then reads
one JSON request ``{"cases": [argv, ...], "trace": bool}`` from stdin.  It
runs every case through ``hyperquot.cli.main`` with stdout captured, writes
one JSON result line and exits.  Caches of the package start cold in each
worker and persist across the cases of its pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

from hyperquot import cli, combinat


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code
    except Exception as exc:  # a crash is a failed case, not a failed pass
        rc, error = None, repr(exc)
    seconds = time.perf_counter() - t0
    data = out.getvalue().encode()
    return {
        "rc": rc,
        "sha256": hashlib.sha256(data).hexdigest(),
        "s": seconds,
        "bytes": len(data),
        "error": error or err.getvalue()[-500:] or None,
    }


def run_pass(cases: list[list[str]], trace: bool) -> dict:
    rec = None
    if trace:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    results = []
    t0 = time.perf_counter()
    for i, argv in enumerate(cases):
        if rec is None:
            results.append(run_case(argv))
            continue
        rec.case = i
        span = rec.open("cli.case")
        try:
            results.append(run_case(argv))
        finally:
            rec.close(span)
    wall = time.perf_counter() - t0
    reply = {
        "cases": results,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if rec is not None:
        counters = rec.totals(combinat.block_permutations)
        counters["cli.output_bytes"] = sum(r["bytes"] for r in results)
        reply["trace"] = {"spans": rec.spans, "counters": counters}
    return reply


def main() -> int:
    print("ready", flush=True)
    request = json.loads(sys.stdin.readline())
    reply = run_pass(request["cases"], request["trace"])
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
