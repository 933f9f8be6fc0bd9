"""Case lists of the benchmark workloads.

A case is the argv list handed to ``hyperquot.cli.main``.  The fixed
workload, ``motivic_large``, runs the same cases in the same order whatever
the seed: its genus-2 cases share the symmetric-product cache, so the order
decides which of them pays to fill it; a fixed order keeps each case's work
and the peak memory the same in every run.
``small_sweep`` samples its cases from a pool of small inputs that is
generated once from a fixed seed, so every case a run can draw has a golden
digest in ``golden.json``.  The sample is stratified: ``golden.json`` also
holds the pool split into groups of cases of similar recorded cost, and a
run draws one case from each group, so seeds vary the inputs but hardly the
total work.

The pool generator emits only inputs whose correct answer is exit 0: no
empty windows, ``duality`` only where the documented smoothness criteria
certify the input, and ``poincare``/``chi_y`` only where every Lefschetz
offset is nonnegative, so no coefficient has a negative exponent.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

MOTIVIC_LARGE = [
    "compute --genus 2 --degrees 0,0,0 --s 1,2 --dmax 12,12 --format json",
    "compute --genus 2 --degrees 0,0,0,0,0 --s 1,3 --dmax 6,6 --format json",
    "compute --genus 4 --degrees 0,1,2,3 --s 2 --dmax 30 --format json",
    "compute --genus 2 --degrees 0,0,0,0 --s 1,2,3 --dmax 4,4,4 --format json",
    "compute --genus 3 --degrees 0,-1,1 --s 1,2 --dmax 8,8 --format json",
]

FIXED = {"motivic_large": MOTIVIC_LARGE}

POOL_SEED = 20240427
POOL_SIZE = 600
SWEEP_SIZE = 300

GOLDEN = Path(__file__).with_name("golden.json")

SUITES_ANY = ("euler_spec", "lemma_h", "zeta_rat")


def _lower_bounds(degrees: list[int], s: list[int]) -> list[int]:
    """Mirror of the CLI's default --dmin: the sum of the s_j smallest degrees."""
    ordered = sorted(degrees)
    return [sum(ordered[:x]) for x in s]


def _offsets_nonnegative(genus: int, degrees: list[int], s: list[int]) -> bool:
    """Sufficient test that every Lefschetz offset is >= 0: each pairwise
    term deg_b - deg_a + 1 - g is >= -gap + 1 - g, and there are no pairs
    when every quotient rank is zero."""
    return all(x == 0 for x in s) or max(degrees) - min(degrees) <= 1 - genus


def _certified_smooth(genus: int, degrees: list[int], s: list[int]) -> bool:
    """The two documented sufficient smoothness criteria."""
    return all(x == 0 for x in s) or (genus == 0 and max(degrees) - min(degrees) <= 1)


def generate_case(rng: random.Random) -> str:
    """One small CLI input whose correct answer is exit 0."""
    genus = rng.randint(0, 3)
    rank = rng.randint(1, 4)
    length = rng.randint(1, 3)
    s = sorted(rng.randint(0, rank) for _ in range(length))
    if rng.random() < 0.3:
        degrees = [rng.randint(-2, 2)] * rank
    else:
        degrees = [rng.randint(-2, 2) for _ in range(rank)]
    lo = _lower_bounds(degrees, s)
    kind = rng.random()
    # Fixed-component enumeration (``info``, ``oracle``) grows fastest with
    # the window, so it gets narrower windows.
    enumerates = kind >= 0.85 or (kind >= 0.5 and rng.random() < 0.25)
    extent = {1: 4, 2: 2, 3: 1}[length] if enumerates else {1: 5, 2: 3, 3: 2}[length]
    hi = [a + rng.randint(0, extent) for a in lo]
    fmt = rng.choice(("text", "json"))

    def ints(xs):
        return ",".join(str(x) for x in xs)

    geometry = f"--genus {genus} --degrees {ints(degrees)} --s {ints(s)} --dmax {ints(hi)}"
    if rng.random() < 0.2:
        geometry += f" --dmin {ints(rng.randint(a, b) for a, b in zip(lo, hi))}"
    if kind < 0.5:
        realizations = ["motivic", "euler"]
        if _offsets_nonnegative(genus, degrees, s):
            realizations += ["poincare", "chi_y"]
        return f"compute --realization {rng.choice(realizations)} {geometry} --format {fmt}"
    if kind < 0.85:
        if enumerates:
            return f"verify --suite oracle {geometry} --format {fmt}"
        suites = list(SUITES_ANY)
        if _certified_smooth(genus, degrees, s):
            suites.append("duality")
        if genus == 0 and len(set(degrees)) == 1:
            suites += ["genus0", "b0"]
        return f"verify --suite {rng.choice(suites)} {geometry} --format {fmt}"
    return f"info {geometry} --format {fmt}"


def sweep_pool() -> list[str]:
    """The fixed pool of distinct small cases that sweeps sample from."""
    rng = random.Random(POOL_SEED)
    pool: list[str] = []
    seen: set[str] = set()
    while len(pool) < POOL_SIZE:
        case = generate_case(rng)
        if case not in seen:
            seen.add(case)
            pool.append(case)
    return pool


def pool_digest(pool: list[str]) -> str:
    return hashlib.sha256("\n".join(pool).encode()).hexdigest()


def load_golden() -> dict:
    """``{"pool_sha256", "sweep_strata": [[pool index, ...], ...],
    "cases": {argv joined by spaces: [exit code, stdout sha256]}}``."""
    return json.loads(GOLDEN.read_text())


def cases(workload: str, seed: int, golden: dict) -> list[list[str]]:
    """The argv lists of one run of a workload, in run order."""
    if workload in FIXED:
        return [c.split() for c in FIXED[workload]]
    if workload != "small_sweep":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    pool = sweep_pool()
    if pool_digest(pool) != golden["pool_sha256"]:
        raise ValueError("the sweep pool no longer matches golden.json")
    chosen = [pool[rng.choice(group)] for group in golden["sweep_strata"]]
    rng.shuffle(chosen)
    return [c.split() for c in chosen]
