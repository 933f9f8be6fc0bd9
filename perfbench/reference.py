"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/reference.py

Prints the seconds one fixed computation took.  The computation is the kind
of work the hyperquot package does, in a fresh interpreter: products of
dict-based polynomials, once with small coefficients as in ``EPoly`` and
once with multi-digit ones, and a JSON rendering of the result.  It imports
nothing from the package, so a change to the package cannot change it.
``run.py`` starts it after every pass and scales the run's times by its
fastest run (see ``run.host_scale``).
"""

from __future__ import annotations

import json
import time


def multiply(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            s = out.get(key, 0) + x * y
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def power(base: dict, reduce) -> dict:
    poly = base
    for _ in range(3):
        poly = multiply(poly, base)
        poly = {k: reduce(v) for k, v in poly.items() if k[0] < 30 and k[1] < 30}
    return poly


def work() -> int:
    small = {(i, j): (i * 7 + j * 13) % 7 - 3 for i in range(11) for j in range(11)}
    small = power({k: v for k, v in small.items() if v}, int)
    wide = {(i, j): (i * 7919 + j * 104729) ** 3 for i in range(11) for j in range(11)}
    wide = power(wide, lambda v: v % (1 << 200))
    text = json.dumps({f"{i},{j}": v for (i, j), v in sorted(small.items())})
    return len(text) + len(wide)


if __name__ == "__main__":
    t0 = time.perf_counter()
    work()
    print(time.perf_counter() - t0)
