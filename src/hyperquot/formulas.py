"""Closed-form partition functions of hyperquot schemes on a curve.

Four generating functions over the multidegree lattice:

* ``motivic_partition_function`` -- the fixed-locus sum over block
  permutations of a Lefschetz prefactor times a product of twisted zeta
  evaluations; valid as a motivic identity whenever the hyperquot scheme is
  smooth and unobstructed, and well defined as a formal series always.
* ``genus0_closed_form`` -- the product formula for the projective line
  with the bundle O(c)**r: the flag-variety class times geometric factors,
  shifted by the twist.
* ``euler_partition_function`` -- the Euler-characteristic series, valid
  with no smoothness assumption.
* ``fixed_component_counts`` -- the number of torus-fixed components at
  each multidegree: the motivic sum with every class set to 1.

All four are one kind of value, a *formula*: a mapping from an ordered
tuple of factors to the terms ``(shift, coeff)`` that share that product.
Its series is the sum over groups and terms of ``coeff * q**shift`` times
the product of the factors.  Every factor ``(e, pu, pv, m)`` is
``(1 - u**pu v**pv q**m)**e`` with ``e`` = 1 or -1; ``L**a`` is
``u**a v**a``, and the zeta function of the curve at ``L**a q**m`` is the
2g + 2 factors of ``curve_motives.zeta_factors``.  Every factor tuple is
one ``_product``: a rule's factors at each slot (i, j, alpha), in slot
order, so a formula's tuples share one length.  ``_sigma_series``
evaluates a whole formula, or under ``--parallel`` one branch of it, as a
Horner-style sum of products over the prefix trie of its factor tuples'
heads and the suffix trie of their tails, on one frame, walking the plan
that ``_plan`` makes before any series arithmetic; no other function here
does series arithmetic.

None of these enforce smoothness; callers consult the smoothness module
for whether the motivic output is certified to equal the motive.
"""

from __future__ import annotations

import os
from collections import Counter

from .combinat import (
    BundleSpec, CurveSpec, NestingProfile, _slots, block_permutations, check_shape, zeta_slots
)
from .curve_motives import zeta_factors
from .epoly import _PLUS, ONE, EPoly, _at_stride, _axpy, _box, _cell, flag_motive, lefschetz_power
from .qseries import MSeries, Window, _dense, _shift_pairs, zero_series

Factor = tuple[int, int, int, tuple[int, ...]]
Formula = dict[tuple[Factor, ...], list[tuple[tuple[int, ...], EPoly]]]


def default_lower_bounds(bundle: BundleSpec, profile: NestingProfile) -> tuple[int, ...]:
    """Componentwise minimum over block permutations of the degree
    prefactors: at index j this is the sum of the s_j smallest degrees.
    No nonzero coefficient sits below these bounds."""
    check_shape(profile, bundle)
    ordered = sorted(bundle.degrees)
    return tuple(sum(ordered[: profile.s[j - 1]]) for j in range(1, profile.length + 1))


def _product(profile: NestingProfile, rule) -> tuple[Factor, ...]:
    """The factors (e, pu, pv, m) of ``rule(i, j, alpha)`` over the slots, in
    slot order: the rule gives each slot's (e, pu, pv), and m is the slot's
    direction q_i ... q_j."""
    return tuple(
        (e, pu, pv, m) for i, j, alpha, m in _slots(profile) for e, pu, pv in rule(i, j, alpha)
    )


def _prefactor(sigma, degrees: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(
        sigma.degree_prefactor(j, degrees) for j in range(1, sigma.profile.length + 1)
    )


def _prefactor_terms(bundle: BundleSpec, profile: NestingProfile):
    """One term per distinct degree prefactor, weighted by how many block
    permutations share it."""
    mult = Counter(_prefactor(sigma, bundle.degrees) for sigma in block_permutations(profile))
    return [(pre, EPoly.from_int(n)) for pre, n in sorted(mult.items())]


def _sigma_series(formula: Formula, window: Window) -> MSeries:
    """The series of a formula, as one walk of its ``_plan`` in two phases
    cut at the plan's depth k: the prefix trie of the plan's tuples' first
    k factors, then the suffix trie of the rest, so groups share the
    products of their common prefixes and, summed before it, the product
    of their common suffix.

    Every series of the walk lives on the plan's frame base..hi.  Phase 1
    walks the prefix trie depth first from q**base, building each node's
    series just before it descends, so at most depth-many are live; every
    recurrence is shift-invariant and reads only lower cells, so q**base
    times a product holds exactly the product's cells 0..hi - base.  At the
    node where a group's prefix ends, each term ``c q**shift`` of the group
    is moved up by shift - base into the sum of its suffix, the root of the
    suffix trie being the empty suffix.

    Each trie node is made once, when its factor is first met, and each
    suffix node is recorded as (node, parent, factor) as it is made.  Phase
    2 folds them in reverse order of making: each node's factor applied to
    its sum goes into its parent's sum, and since a child is made after its
    parent, it is folded before it.  The root's sum is the series, moved
    into the window only if the frame differs from it.  Both phases share
    one table of factor monomials, so the walk builds each distinct
    u**pu v**pv once (``_pass``), and read each pass's cell pairs from the
    plan.  The seed and the terms are put in the plan's stride, and every
    value the walk makes keeps it, since ``_axpy`` keeps the wider of two
    layouts and widens only for a band the stride does not hold.

    From its seed to its final frame the walk keeps lists of cells
    (``epoly._cell``), which ``_axpy`` reads and writes, so a carry builds
    no ``EPoly``: the values it makes are its seed, its terms, one
    monomial per distinct factor monomial and the cells of the result,
    each wrapped once."""
    plan = _plan(formula, window)
    if plan is None:
        return zero_series(window)
    frame, w, k = plan.frame, plan.stride, plan.k
    base = frame.lo
    root, sinks, folds = _Node(), _Node(), []
    for factors, terms in plan.groups.items():
        node = root
        for f in factors[:k]:  # a node is made only for a factor new at its parent
            node = node.children.get(f) or node.children.setdefault(f, _Node())
        sink = sinks
        for f in reversed(factors[k:]):
            child = sink.children.get(f)
            if child is None:
                child = sink.children[f] = _Node()
                folds.append((child, sink, f))
            sink = child
        node.terms += [
            (sink, tuple(x - b for x, b in zip(s, base)), _cell(_at_stride(c, w)))
            for s, c in terms
        ]

    monomials: dict[tuple[int, int], tuple] = {}
    seed = [0] * frame.size
    seed[0] = _cell(_at_stride(ONE, w))  # q**base, the frame's first cell
    stack = [(root, None, seed)]
    while stack:
        node, factor, acc = stack.pop()
        acc = _pass(acc, factor, plan, monomials)
        for sink, delta, c in node.terms:
            if sink.sum is None:
                sink.sum = [0] * frame.size
            _axpy(sink.sum, acc, c, _shift_pairs(frame, frame, delta))
        stack += [(child, f, acc) for f, child in reversed(node.children.items())]

    for node, parent, factor in reversed(folds):
        acc = _pass(node.sum, factor, plan, monomials)
        node.sum = None
        if parent.sum is None:
            parent.sum = acc
        else:
            _axpy(parent.sum, acc, _PLUS, enumerate(range(frame.size)))
    out = sinks.sum
    if frame is not window:  # the frame's cells moved into the window
        out = [0] * window.size
        _axpy(out, sinks.sum, _PLUS, _shift_pairs(frame, window, (0,) * len(base)))
    return _dense(window, out)


class _Plan:
    """What a walk works out before its first carry (``_plan``): ``groups``,
    the live groups by their tuples with the identity factors dropped;
    ``frame``; ``pairs``, the (source, target) cell pairs on the frame of
    each direction that fits it; ``stride``; the cut depth ``k``; and
    ``passes``, the factor passes of the walk."""

    __slots__ = ("groups", "frame", "pairs", "stride", "k", "passes")


def _plan(formula: Formula, window: Window) -> _Plan | None:
    """The plan of a walk of ``formula`` on ``window``, or None when no term
    is live (shift <= hi).  The frame is base..hi, with base the
    componentwise min shift of the live terms.

    A factor whose direction m has no cell pair on the frame, m_i > hi_i -
    base_i for some i, is an identity factor: within the frame its
    expansion is 1, so it is dropped, and groups whose tuples then
    coincide are merged by concatenating their terms.  The walk stride
    (``_walk_stride``) bounds the band pv - pu of every value of the walk:
    a term's band moved by at most the band moves that the frame's degree
    budget, the sum of its hi - base, pays for at |m| each (``_reach``).
    The moves are read from one tuple, as every tuple of a formula builder
    has the same factors at each direction (the zeta rule g moves of -1
    and g of +1 at each slot, whatever the block permutation; the genus-0
    and integer rules none).  A hand-built formula that broke this, or a
    geometric factor that moved the band, which would move it by every
    power (no formula builder makes either), changes no coefficient: as
    for a band over 32 wide, ``_layout`` widens the values that outgrow
    the stride.  k and the pass count are ``_cut``'s, exact for tuples of
    one length, which every formula builder's are."""
    hi = window.hi
    live, lows, highs = {}, [], []
    for factors, terms in formula.items():
        terms = [t for t in terms if all(h >= s for h, s in zip(hi, t[0]))]
        if terms:
            live[factors] = terms
            for _, c in terms:
                _, _, c_lo, c_hi = _box(c)
                lows.append(c_lo)
                highs.append(c_hi)
    if not live:
        return None
    plan = _Plan()
    base = tuple(map(min, zip(*(s for terms in live.values() for s, _ in terms))))
    plan.frame = frame = window if base == window.lo else Window(base, hi)
    directions = {f[3] for factors in live for f in factors}
    plan.pairs = pairs = {m: p for m in directions if (p := _shift_pairs(frame, frame, m))}
    if len(pairs) < len(directions):  # identity factors to drop
        groups: Formula = {}
        for factors, terms in live.items():
            groups.setdefault(tuple(f for f in factors if f[3] in pairs), []).extend(terms)
        live = groups
    plan.groups = live
    budget = sum(hi) - sum(base)
    down, up = [], []
    for _, pu, pv, m in next(iter(live)):
        if pv != pu:
            (down if pv < pu else up).append((abs(pv - pu), sum(m)))
    bands = (min(lows) - _reach(down, budget), max(highs) + _reach(up, budget))
    plan.stride = _walk_stride(bands)
    plan.k, plan.passes = _cut(list(live))
    return plan


def _reach(moves: list[tuple[int, int]], budget: int) -> int:
    """The most band a set of (move, cost) factors can move with a degree
    budget, each applied at most once: a fractional knapsack, filled by
    least cost per unit of move, rounded down.  Its optimum bounds every
    whole choice, so the bound is sound."""
    reach = 0
    for move, cost in sorted(moves, key=lambda mc: mc[1] / mc[0]):
        if cost > budget:
            return reach + move * budget // cost
        reach, budget = reach + move, budget - cost
    return reach


def _walk_stride(bands: tuple[int, int]) -> int:
    """The stride of the values of a walk whose values lie in the bands
    pv - pu from ``bands[0]`` to ``bands[1]``: one more than the width of
    that range, and at most 32, the coarse stride of a band under 32 wide,
    so no walk packs wider than the coarse rule.  ``_plan`` bounds the
    range: a linear factor moves a term's band by its pv - pu once or not
    at all, and applied it uses |m| of the frame's degrees, so a product's
    band moves at most as far as the frame pays for, and a term's
    coefficient moves that range by its own band."""
    return min(32, bands[1] - bands[0] + 1)


def _pass(acc: list, factor: Factor | None, plan: _Plan, monomials: dict) -> list:
    """The cells of acc, a series on the plan's frame, times one factor
    (1 - u**pu v**pv q**m)**e, as a new list; acc itself for None.  A
    geometric factor (e = -1) is the recurrence out[d] += c out[d - m] over
    ascending cells, a linear one out[d] -= c out[d - m] over descending
    ones, so each reads a[d - m] before it changes: one ``_axpy`` either
    way, over the plan's pairs of m.  ``monomials`` holds the walk's cells
    of +-u**pu v**pv by (pu, pv), each built at its first pass, so a walk
    builds one monomial per distinct (pu, pv)."""
    if factor is None:
        return acc
    e, pu, pv, m = factor
    cs = monomials.get((pu, pv))
    if cs is None:
        c = _cell(EPoly.monomial(pu, pv))
        cs = monomials[pu, pv] = (c, (-c[0],) + c[1:])
    pairs = plan.pairs[m]
    out = list(acc)
    _axpy(out, out, cs[e > 0], reversed(pairs) if e > 0 else pairs)
    return out


def _cut(tuples: list[tuple[Factor, ...]]) -> tuple[int, int]:
    """The depth k at which ``_sigma_series`` cuts a formula's factor
    tuples, which share one length n (each is one ``_product``), and the
    walk's factor passes there: the k with the fewest nodes, one factor
    pass each, in the prefix trie of the t[:k] plus the suffix trie of the
    t[k:], a tie going to the larger k.  So one tuple, whose every cut
    costs its length, is not cut: (n, n).  Any k gives the same series, so
    tuples of other lengths are still summed exactly, though their count
    may be off."""
    n = len(tuples[0])
    if len(tuples) == 1:
        return n, n
    pre, suf = _trie_sizes(tuples), _trie_sizes([t[::-1] for t in tuples])
    k = min(range(n, -1, -1), key=lambda k: pre[k] + suf[n - k])
    return k, pre[k] + suf[n - k]


def _trie_sizes(tuples: list[tuple]) -> list[int]:
    """For tuples of one length n, the nodes of the trie of the t[:d] for
    d = 0..n: the distinct prefixes up to each depth, counted by interning
    (parent id, item) depth by depth, so no prefix is sliced or hashed
    whole.  Once every tuple has a prefix of its own, each further depth
    adds one node per tuple."""
    g, n = len(tuples), len(tuples[0])
    ids, sizes = [0] * g, [0]
    for column in zip(*tuples):
        level: dict = {}
        ids = [level.setdefault(key, len(level)) for key in zip(ids, column)]
        sizes.append(sizes[-1] + len(level))
        if len(level) == g:
            break
    return sizes + [sizes[-1] + g * i for i in range(1, n + 2 - len(sizes))]


class _Node:
    """A node of a factor trie.  In the prefix trie: its children by next
    factor and the (suffix node, shift - base, coeff) terms of the groups
    whose prefix ends here.  In the suffix trie: its children by preceding
    factor and the running sum of the series that reach it."""

    __slots__ = ("children", "terms", "sum")

    def __init__(self):
        self.children, self.terms, self.sum = {}, [], None


def _branches(formula: Formula) -> list[Formula]:
    """The formula cut into the sub-tries below the first branching node
    of its factor trie, each with the groups whose tuples pass through it."""
    d = len(os.path.commonprefix(list(formula)))
    subs: dict[tuple[Factor, ...], Formula] = {}
    for factors, terms in formula.items():
        subs.setdefault(factors[: d + 1], {})[factors] = terms
    return list(subs.values())


def _evaluate(formula: Formula, window: Window, parallel: bool = False) -> MSeries:
    """The series of a formula: one ``_sigma_series`` walk, or under
    ``parallel`` one walk per branch (``_branches``) in worker processes,
    each planning its own branch, so the groups of a branch still share
    their prefixes and suffixes.  Exact integer arithmetic makes the
    reduction order irrelevant, so the parallel path is bit-identical."""
    if parallel and len(formula) > 1:
        from concurrent.futures import ProcessPoolExecutor

        subs = _branches(formula)
        with ProcessPoolExecutor() as pool:
            parts = list(pool.map(_sigma_series, subs, [window] * len(subs)))
        return sum(parts, zero_series(window))
    return _sigma_series(formula, window)


def motivic_partition_function(
    curve: CurveSpec,
    bundle: BundleSpec,
    profile: NestingProfile,
    window: Window,
    parallel: bool = False,
) -> MSeries:
    """Sum over block permutations of the Lefschetz-weighted prefactor times
    the product of twisted zeta evaluations.  Block permutations with the
    same multiset of factors, read from their sorted (zeta exponent,
    direction) slot pairs (``zeta_slots``), share one product."""
    check_shape(profile, bundle, window)
    g, degrees = curve.genus, bundle.degrees
    groups: dict[tuple, tuple] = {}
    for sigma, (key, exponents) in zip(block_permutations(profile), zeta_slots(profile)):
        group = groups.get(key)
        if group is None:  # a new group: its first block permutation's zetas, in slot order
            a = iter(exponents)
            group = groups[key] = (_product(profile, lambda *_: zeta_factors(g, next(a))), [])
        offset = sum(sigma.stratum_offset(j, g, degrees) for j in range(1, profile.length + 1))
        group[1].append((_prefactor(sigma, degrees), lefschetz_power(offset)))
    return _evaluate(dict(groups.values()), window, parallel)


def genus0_closed_form(bundle: BundleSpec, profile: NestingProfile, window: Window) -> MSeries:
    """Partition function of O(c)**r on the projective line: q**(c s) times
    the flag-variety class divided by the product of
    (1 - L**(r_i - alpha) q_i..q_j)(1 - L**(r_{i-1} - alpha + 1) q_i..q_j)
    over 1 <= i <= j <= l and alpha in block j.  Twisting every summand by
    O(c) shifts the degree of a rank-s_j quotient by c s_j."""
    check_shape(profile, bundle, window)
    if bundle.max_gap:
        raise ValueError(f"the product form needs equal summand degrees, got {bundle.degrees}")
    r = profile.corank
    factors = _product(profile, lambda i, j, a: [(-1, x, x) for x in (r(i) - a, r(i - 1) - a + 1)])
    shift = tuple(bundle.degrees[0] * x for x in profile.s)
    return _evaluate({factors: [(shift, flag_motive(profile))]}, window)


def _integer_product(bundle: BundleSpec, profile: NestingProfile, window: Window, e: int):
    """The sum over block permutations of the prefactor monomials, times
    (1 - q_i..q_j)**e per (i, j, alpha): |e| factor passes per slot."""
    check_shape(profile, bundle, window)
    factors = _product(profile, lambda *_: [(1 if e > 0 else -1, 0, 0)] * abs(e))
    return _evaluate({factors: _prefactor_terms(bundle, profile)}, window)


def euler_partition_function(
    curve: CurveSpec,
    bundle: BundleSpec,
    profile: NestingProfile,
    window: Window,
) -> MSeries:
    """Euler-characteristic series, valid with no smoothness assumption:
    the sum over block permutations of the prefactor monomials, times
    (1 - q_i..q_j)**(2g - 2) per (i, j, alpha), the Euler value of the
    curve's zeta function at q_i..q_j."""
    return _integer_product(bundle, profile, window, 2 * curve.genus - 2)


def fixed_component_counts(
    bundle: BundleSpec, profile: NestingProfile, window: Window
) -> MSeries:
    """Number of torus-fixed components at each multidegree, as integer
    coefficients: the sum over block permutations of the prefactor
    monomials, times 1/(1 - q_i..q_j) per (i, j, alpha).  Each factor counts
    one step of a nondecreasing length tuple."""
    return _integer_product(bundle, profile, window, -1)
