"""Closed-form partition functions against hand expansions and each other."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperquot import epoly, formulas, qseries
from hyperquot.combinat import BundleSpec, CurveSpec, NestingProfile
from hyperquot.curve_motives import zeta_eval
from hyperquot.epoly import (
    LEFSCHETZ,
    ONE,
    EPoly,
    NegativeExponent,
    euler_number,
    flag_motive,
    lefschetz_power,
    poincare_polynomial,
)
from hyperquot.formulas import (
    default_lower_bounds,
    euler_partition_function,
    fixed_component_counts,
    genus0_closed_form,
    motivic_partition_function,
)
from hyperquot.qseries import MSeries, Window, zero_series
from hyperquot.smoothness import smoothness_status

L = LEFSCHETZ


def projective_space(n):
    return EPoly({(k, k): 1 for k in range(n + 1)})


def free_setup(r, s, hi):
    curve = CurveSpec(0)
    bundle = BundleSpec((0,) * r)
    profile = NestingProfile(r, s)
    window = Window((0,) * profile.length, hi)
    return curve, bundle, profile, window


def test_default_lower_bounds():
    profile = NestingProfile(3, (1, 2))
    assert default_lower_bounds(BundleSpec((0, 0, 0)), profile) == (0, 0)
    assert default_lower_bounds(BundleSpec((2, -1, 1)), profile) == (-1, 0)
    with pytest.raises(ValueError):
        default_lower_bounds(BundleSpec((0, 0)), profile)


def test_rank_two_projective_line_coefficients():
    curve, bundle, profile, window = free_setup(2, (1,), (3,))
    series = motivic_partition_function(curve, bundle, profile, window)
    assert series.coefficient((1,)) == projective_space(3)
    for d in range(4):
        assert series.coefficient((d,)) == projective_space(2 * d + 1)


def test_rank_one_no_quotient_rank_is_zeta():
    for g in (0, 1, 2):
        curve = CurveSpec(g)
        bundle = BundleSpec((0,))
        profile = NestingProfile(1, (0,))
        window = Window((0,), (5,))
        series = motivic_partition_function(curve, bundle, profile, window)
        assert series == zeta_eval(g, 0, (1,), window)


def test_negative_degree_window():
    curve, bundle, profile, _ = free_setup(2, (1,), (2,))
    window = Window((-2,), (2,))
    series = motivic_partition_function(curve, bundle, profile, window)
    assert series.coefficient((-1,)) == EPoly()
    assert series.coefficient((-2,)) == EPoly()


def test_full_rank_quotient_sits_at_bundle_degree():
    # taking the whole line bundle as the quotient leaves a single point,
    # located exactly at d = deg L; this pins the prefactor index range
    for c in (-3, 0, 2):
        curve = CurveSpec(1)
        bundle = BundleSpec((c,))
        profile = NestingProfile(1, (1,))
        window = Window((min(c, -1),), (max(c, 1),))
        series = motivic_partition_function(curve, bundle, profile, window)
        assert series.coeffs == {(c,): ONE}


def test_prefactor_shift_scales_with_quotient_rank():
    # twisting all summands by degree c shifts the series by c * s_j, not c * r_j
    curve = CurveSpec(0)
    profile = NestingProfile(3, (1,))
    plain = motivic_partition_function(
        curve, BundleSpec((0, 0, 0)), profile, Window((0,), (2,))
    )
    c = 2
    twisted = motivic_partition_function(
        curve, BundleSpec((c, c, c)), profile, Window((c,), (2 + c,))
    )
    for d in range(3):
        assert twisted.coefficient((d + c,)) == plain.coefficient((d,))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_twist_shifts_the_series(data):
    # Quot(E (x) L) = Quot(E) with d_j moved by deg(L) s_j: twisting every
    # summand by a degree-c line bundle shifts the series by c * s
    draw = data.draw
    rank = draw(st.integers(1, 4))
    length = draw(st.integers(1, 3))
    s = tuple(sorted(draw(st.lists(st.integers(0, rank), min_size=length, max_size=length))))
    profile = NestingProfile(rank, s)
    bundle = BundleSpec(draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)))
    curve, c = CurveSpec(draw(st.integers(0, 3))), draw(st.integers(-3, 3))
    lo = tuple(a + draw(st.integers(-1, 2)) for a in default_lower_bounds(bundle, profile))
    hi = tuple(a + draw(st.integers(0, 3)) for a in lo)
    twist = BundleSpec(tuple(x + c for x in bundle.degrees))
    moved = Window(tuple(a + c * x for a, x in zip(lo, s)), tuple(b + c * x for b, x in zip(hi, s)))
    for fn in (motivic_partition_function, euler_partition_function):
        plain = fn(curve, bundle, profile, Window(lo, hi))
        assert fn(curve, twist, profile, moved).values == plain.values


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_summand_order_leaves_the_series(data):
    # the sum of the line bundles does not depend on the order of its
    # summands: the Euler series, which needs no smoothness, never moves,
    # and the motivic series does not under a Smooth verdict, where the
    # formula is the motive; half the draws are genus 0 with degree gap <= 1
    draw = data.draw
    rank = draw(st.integers(1, 4))
    length = draw(st.integers(1, 3))
    s = tuple(sorted(draw(st.lists(st.integers(0, rank), min_size=length, max_size=length))))
    profile = NestingProfile(rank, s)
    if draw(st.booleans()):
        genus, low = 0, draw(st.integers(-2, 1))
        degrees = draw(st.lists(st.integers(low, low + 1), min_size=rank, max_size=rank))
    else:
        genus = draw(st.integers(0, 3))
        degrees = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
    curve, bundle = CurveSpec(genus), BundleSpec(degrees)
    shuffled = BundleSpec(draw(st.permutations(degrees)))
    lo = default_lower_bounds(bundle, profile)
    window = Window(lo, tuple(a + draw(st.integers(0, 3)) for a in lo))
    fns = [euler_partition_function]
    if smoothness_status(curve, bundle, profile).is_smooth:
        fns.append(motivic_partition_function)
    for fn in fns:
        assert fn(curve, shuffled, profile, window).values == fn(curve, bundle, profile, window).values


def test_unnested_matches_general():
    # single-step profiles: quotients of one fixed rank
    from hyperquot.oracle import oracle_partition_function

    curve = CurveSpec(1)
    bundle = BundleSpec((0, 1, -1))
    window = Window((-1,), (2,))
    for s in (0, 1, 2, 3):
        profile = NestingProfile(3, (s,))
        assert motivic_partition_function(curve, bundle, profile, window) == \
            oracle_partition_function(curve, bundle, profile, window)


def test_genus0_closed_form_rank_two():
    # (1+L)/((1-q)(1-L^2 q)) expanded by hand
    _, bundle, profile, window = free_setup(2, (1,), (6,))
    series = genus0_closed_form(bundle, profile, window)
    for d in range(7):
        assert series.coefficient((d,)) == projective_space(2 * d + 1)


def test_genus0_closed_form_points_case():
    # two summands, length-d subschemes: 1/((1-q)(1-Lq)^2(1-L^2 q))
    _, bundle, profile, window = free_setup(2, (0,), (4,))
    series = genus0_closed_form(bundle, profile, window)
    from hyperquot.qseries import geometric_divide, series_monomial

    expect = series_monomial(window, (0,) * window.arity, 1)
    for c in (lefschetz_power(0), lefschetz_power(1), lefschetz_power(1), lefschetz_power(2)):
        expect = geometric_divide(expect, c, (1,))
    assert series == expect


def test_rational_curve_space_is_projective_space():
    # rank r-1 quotients of the free bundle: the kernel is a line subbundle
    # of degree -d, so the moduli space is P(H^0(O(d))^r) = P^(r(d+1)-1)
    for r in (2, 3, 4):
        curve, bundle, profile, window = free_setup(r, (r - 1,), (3,))
        series = motivic_partition_function(curve, bundle, profile, window)
        for d in range(4):
            assert series.coefficient((d,)) == projective_space(r * (d + 1) - 1)


def test_twisted_rank_two_bundle_gives_even_projective_spaces():
    # line quotients of O + O(1): the space of sections P(H^0(O(d-1)) + H^0(O(d)))
    curve = CurveSpec(0)
    bundle = BundleSpec((0, 1))
    profile = NestingProfile(2, (1,))
    window = Window((0,), (4,))
    series = motivic_partition_function(curve, bundle, profile, window)
    for d in range(5):
        assert series.coefficient((d,)) == projective_space(2 * d)


def test_rank_one_nested_coefficients_are_nested_hilbert_classes():
    from hyperquot.curve_motives import nested_hilb_class

    for g in (0, 2):
        curve = CurveSpec(g)
        bundle = BundleSpec((0,))
        profile = NestingProfile(1, (0, 0))
        window = Window((0, 0), (3, 3))
        series = motivic_partition_function(curve, bundle, profile, window)
        for n1 in range(4):
            for n2 in range(4):
                expected = nested_hilb_class(g, (n1, n2)) if n1 <= n2 else EPoly()
                assert series.coefficient((n1, n2)) == expected


def test_genus0_closed_form_empty_window():
    profile = NestingProfile(3, (1,))
    window = Window((-3,), (-1,))
    assert genus0_closed_form(BundleSpec((0,) * 3), profile, window) == zero_series(window)


def test_genus0_closed_form_matches_fixed_locus_sum():
    import itertools

    for r in (2, 3):
        for l in (1, 2):
            for s in itertools.combinations_with_replacement(range(r + 1), l):
                curve, bundle, profile, window = free_setup(r, s, (2,) * l)
                assert genus0_closed_form(bundle, profile, window) == \
                    motivic_partition_function(curve, bundle, profile, window)


def test_genus0_closed_form_twisted_bundle():
    # O(c)^r: the free-bundle product shifted by c * s, down into negative degrees
    curve = CurveSpec(0)
    for r, s in [(2, (1,)), (3, (1, 2))]:
        profile = NestingProfile(r, s)
        for c in (-1, 1, 2):
            bundle = BundleSpec((c,) * r)
            lo = default_lower_bounds(bundle, profile)
            window = Window(lo, tuple(x + 3 for x in lo))
            assert genus0_closed_form(bundle, profile, window) == \
                motivic_partition_function(curve, bundle, profile, window)
    with pytest.raises(ValueError):
        genus0_closed_form(BundleSpec((0, 1)), NestingProfile(2, (1,)), Window((0,), (2,)))


def test_genus0_constant_term_is_flag():
    for r, s in [(2, (1,)), (3, (1, 2)), (4, (2,)), (3, (0, 1, 1))]:
        profile = NestingProfile(r, s)
        window = Window((0,) * len(s), (1,) * len(s))
        series = genus0_closed_form(BundleSpec((0,) * r), profile, window)
        assert series.coefficient((0,) * len(s)) == flag_motive(profile)


def test_euler_series_examples():
    curve, bundle, profile, window = free_setup(2, (1,), (5,))
    series = euler_partition_function(curve, bundle, profile, window)
    for d in range(6):
        assert series.coefficient((d,)) == EPoly.from_int(2 * d + 2)

    # genus one: the exponent 2g-2 kills every factor, only the prefactor sum survives
    torus = CurveSpec(1)
    flat = euler_partition_function(torus, bundle, profile, window)
    assert flat.coefficient((0,)) == EPoly.from_int(2)
    for d in range(1, 6):
        assert flat.coefficient((d,)) == EPoly()

    # rank-0 quotients of a rank-r bundle: (1-q)^((2g-2) r)
    for g, r in [(0, 2), (2, 1), (3, 2)]:
        curve = CurveSpec(g)
        bundle = BundleSpec((0,) * r)
        profile = NestingProfile(r, (0,))
        window = Window((0,), (4,))
        series = euler_partition_function(curve, bundle, profile, window)
        expect = one_minus_q_power(window, (2 * g - 2) * r)
        assert series == expect


def one_minus_q_power(window, e):
    from hyperquot.qseries import geometric_divide, multiply_sparse, series_monomial

    out = series_monomial(window, (0,) * window.arity, 1)
    for _ in range(abs(e)):
        if e > 0:
            out = multiply_sparse(out, [((0,), ONE), ((1,), EPoly.from_int(-1))])
        else:
            out = geometric_divide(out, ONE, (1,))
    return out


def test_euler_matches_specialized_motivic():
    curve = CurveSpec(2)
    bundle = BundleSpec((0, -1))
    profile = NestingProfile(2, (1, 1))
    lo = default_lower_bounds(bundle, profile)
    window = Window(lo, (2, 2))
    motivic = motivic_partition_function(curve, bundle, profile, window)
    specialized = MSeries(
        window, {d: EPoly.from_int(euler_number(c)) for d, c in motivic.coeffs.items()}
    )
    assert specialized == euler_partition_function(curve, bundle, profile, window)


def test_poincare_series():
    _, bundle, profile, window = free_setup(2, (1,), (3,))
    series = genus0_closed_form(bundle, profile, window)
    table = {d: poincare_polynomial(c) for d, c in series.items()}
    for d in range(4):
        expect = {2 * k: 1 for k in range(2 * d + 2)}
        assert table[(d,)] == expect
        assert table[(d,)].get(0) == 1  # connected


def test_poincare_series_rejects_laurent():
    curve = CurveSpec(2)
    bundle = BundleSpec((0, 0))
    profile = NestingProfile(2, (1,))
    window = Window((0,), (1,))
    series = motivic_partition_function(curve, bundle, profile, window)
    with pytest.raises(NegativeExponent):
        for _, c in series.items():
            poincare_polynomial(c)


def test_truncation_coherence_of_partition_functions():
    # computing in a window then keeping its coefficients inside a subwindow
    # equals computing in the subwindow directly
    from hyperquot.oracle import oracle_partition_function

    curve = CurveSpec(2)
    bundle = BundleSpec((1, -1))
    profile = NestingProfile(2, (1, 2))
    lo = default_lower_bounds(bundle, profile)
    # the smaller window's lo above the least shift, then below it
    pairs = [
        (Window(lo, (3, 3)), Window(tuple(a + 1 for a in lo), (2, 1))),
        (Window(tuple(a - 2 for a in lo), (3, 3)), Window(tuple(a - 1 for a in lo), (2, 2))),
    ]
    for fn in (motivic_partition_function, euler_partition_function, oracle_partition_function):
        for big, small in pairs:
            assert MSeries(small, fn(curve, bundle, profile, big).coeffs) == fn(
                curve, bundle, profile, small
            )
    free, sfree = BundleSpec((0, 0)), NestingProfile(2, (1,))
    wbig, wsmall = Window((0,), (5,)), Window((1,), (3,))
    assert MSeries(wsmall, genus0_closed_form(free, sfree, wbig).coeffs) == \
        genus0_closed_form(free, sfree, wsmall)


def test_parallel_matches_serial():
    curve = CurveSpec(1)
    bundle = BundleSpec((0, 1, -1))
    profile = NestingProfile(3, (1, 2))
    window = Window(default_lower_bounds(bundle, profile), (2, 2))
    serial = motivic_partition_function(curve, bundle, profile, window)
    parallel = motivic_partition_function(curve, bundle, profile, window, parallel=True)
    assert serial == parallel


# -- shared factor prefixes and suffixes ----------------------------------------

ALPHABET = [
    (-1, 0, 0, (1, 0)),
    (-1, 1, 1, (0, 1)),
    (1, 1, 0, (1, 1)),
    (1, 0, 1, (1, 0)),
    (-1, 2, 1, (1, 1)),
]


@st.composite
def small_formulas(draw):
    """Groups that cut one spine of factors and add up to two of their own,
    so tuples share prefixes or are prefixes of each other; or groups of
    one length, each a head of its own and one of up to two shared tails,
    so tuples share suffixes.  Shifts give the groups different least
    shifts, so the frame of the walk starts above, at or below the window's
    lower bound, and put some terms below that bound or above the upper one."""
    factor = st.sampled_from(ALPHABET)
    spine = draw(st.lists(factor, max_size=5))
    head_len, tail_len = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    tail = st.lists(factor, min_size=tail_len, max_size=tail_len)
    tails = draw(st.lists(tail, min_size=1, max_size=2))
    shared_tails = draw(st.booleans())
    formula = {}
    for _ in range(draw(st.integers(1, 5))):
        if shared_tails:
            head = draw(st.lists(factor, min_size=head_len, max_size=head_len))
            factors = tuple(head + draw(st.sampled_from(tails)))
        else:
            cut = draw(st.integers(0, len(spine)))
            factors = tuple(spine[:cut] + draw(st.lists(factor, max_size=2)))
        shift = st.tuples(st.integers(-2, 4), st.integers(-2, 4))
        coeff = st.builds(
            EPoly.monomial, st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([1, -1, 2])
        )
        formula[factors] = draw(st.lists(st.tuples(shift, coeff), min_size=1, max_size=3))
    return formula


@settings(max_examples=80, deadline=None)
@given(small_formulas(), st.tuples(st.integers(-3, 1), st.integers(-3, 1)))
def test_prefix_sharing_is_exact(formula, lo):
    window = Window(lo, (3, 3))
    shared = formulas._evaluate(formula, window)
    one_by_one = [formulas._evaluate({k: v}, window) for k, v in formula.items()]
    assert shared == sum(one_by_one, zero_series(window))
    assert shared == formulas._evaluate(formula, window, parallel=True)


def _formula(monkeypatch, build):
    """The formula that ``build()`` hands to ``_evaluate``."""
    seen = []
    monkeypatch.setattr(
        formulas, "_evaluate", lambda f, w, parallel=False: seen.append(f) or zero_series(w)
    )
    build()
    monkeypatch.undo()
    return seen[0]


def _motivic_formula(monkeypatch, genus, degrees, s, hi):
    """The formula of a motivic case, as handed to ``_evaluate``, and its window."""
    bundle, profile = BundleSpec(degrees), NestingProfile(len(degrees), s)
    window = Window(default_lower_bounds(bundle, profile), hi)
    formula = _formula(
        monkeypatch, lambda: motivic_partition_function(CurveSpec(genus), bundle, profile, window)
    )
    return formula, window


def _passes(monkeypatch, run) -> list[Window]:
    """The frame of each factor pass ``run()`` makes, seen at the walk's cell
    kernel ``_pass``; its call with no factor, at the root, is no pass."""
    windows, step = [], formulas._pass

    def spy(acc, factor, frame, monomials):
        if factor is not None:
            windows.append(frame)
        return step(acc, factor, frame, monomials)

    monkeypatch.setattr(formulas, "_pass", spy)
    run()
    monkeypatch.undo()
    return windows


def test_groups_share_factor_prefixes(monkeypatch):
    formula, window = _motivic_formula(monkeypatch, 2, (0,) * 5, (1, 3), (6, 6))
    # 27 groups of 36 factors: 972 passes when every group builds its own
    # product, 408 when they share prefixes only
    assert len(formula) == 27
    windows = _passes(monkeypatch, lambda: formulas._evaluate(formula, window))
    assert len(windows) == 192 and len(set(windows)) == 1
    # each branch --parallel hands to a worker cuts its own tuples on one frame
    branches = formulas._branches(formula)
    walks = [_passes(monkeypatch, lambda: formulas._sigma_series(sub, window)) for sub in branches]
    assert len(branches) == 2 and sum(map(len, walks)) == 228
    assert all(len(set(w)) == 1 for w in walks)


@pytest.mark.parametrize(
    "genus, degrees, s, hi, passes",
    [
        (2, (0, 0, 0), (1, 2), (12, 12), 48),
        (2, (0,) * 5, (1, 3), (6, 6), 192),
        (4, (0, 1, 2, 3), (2,), (30,), 60),
        (2, (0,) * 4, (1, 2, 3), (4, 4, 4), 156),
        (3, (0, -1, 1), (1, 2), (8, 8), 64),
    ],
)
def test_motivic_passes_are_the_cut_trie_nodes(monkeypatch, genus, degrees, s, hi, passes):
    formula, window = _motivic_formula(monkeypatch, genus, degrees, s, hi)
    built, monomial = [], EPoly.monomial
    monkeypatch.setattr(EPoly, "monomial", lambda *a: built.append(a) or monomial(*a))
    nodes, node = [], formulas._Node
    monkeypatch.setattr(formulas, "_Node", lambda: nodes.append(1) or node())
    # _passes undoes the spies once the walk is done
    windows = _passes(monkeypatch, lambda: formulas._evaluate(formula, window))
    # every pass of one evaluation runs on the formula's frame
    assert len(windows) == passes and len(set(windows)) == 1
    # and the walk builds each distinct factor monomial u**pu v**pv once
    assert sorted(built) == sorted({(pu, pv) for t in formula for _, pu, pv, _ in t})
    # and makes each trie node once: one per pass, and the two roots
    assert len(nodes) == passes + 2


def _motivic_series(genus, degrees, s, hi):
    bundle, profile = BundleSpec(degrees), NestingProfile(len(degrees), s)
    window = Window(default_lower_bounds(bundle, profile), hi)
    return motivic_partition_function(CurveSpec(genus), bundle, profile, window)


def _genus0_series():
    bundle, profile = BundleSpec((1, 1, 1)), NestingProfile(3, (1, 2))
    window = Window(default_lower_bounds(bundle, profile), (5, 6))
    return genus0_closed_form(bundle, profile, window)


def _euler_series():
    bundle, profile = BundleSpec((0, -1)), NestingProfile(2, (1,))
    window = Window(default_lower_bounds(bundle, profile), (4,))
    return euler_partition_function(CurveSpec(2), bundle, profile, window)


@pytest.mark.parametrize(
    "run, stride",
    [
        # the motivic_large cases: 2g band moves per slot, so the band bound
        # is 2g times the slots of a tuple
        (lambda: _motivic_series(2, (0, 0, 0), (1, 2), (12, 12)), 13),
        (lambda: _motivic_series(2, (0,) * 5, (1, 3), (6, 6)), 25),
        (lambda: _motivic_series(4, (0, 1, 2, 3), (2,), (30,)), 17),
        (lambda: _motivic_series(2, (0,) * 4, (1, 2, 3), (4, 4, 4)), 25),
        (lambda: _motivic_series(3, (0, -1, 1), (1, 2), (8, 8)), 19),
        # no factor moves the band, and the flag class is a polynomial in L
        (_genus0_series, 1),
        (_euler_series, 1),
    ],
)
def test_every_walk_value_has_the_walk_stride(monkeypatch, run, stride):
    walk_strides, seen = [], set()
    walk_stride, axpy = formulas._walk_stride, epoly._axpy

    def spy_stride(live):
        walk_strides.append(walk_stride(live))
        return walk_strides[-1]

    def spy_axpy(out, *args):
        axpy(out, *args)
        seen.update(x[4] for x in out if x)  # a cell's stride

    monkeypatch.setattr(formulas, "_walk_stride", spy_stride)
    monkeypatch.setattr(formulas, "_axpy", spy_axpy)
    monkeypatch.setattr(qseries, "_axpy", spy_axpy)
    series = run()
    assert walk_strides == [stride]
    assert seen == {x._w for x in series.values if x} == {stride}


def test_walk_wraps_its_frame_once(monkeypatch):
    # the walk carries bare cells: the values it makes are its seed, its terms
    # at the walk stride, one monomial per distinct (pu, pv) and the cells of
    # its frame, each wrapped once at the end, not one value per carry
    formula, window = _motivic_formula(monkeypatch, 2, (0,) * 5, (1, 3), (6, 6))
    made, wrap = [], epoly._wrap
    monkeypatch.setattr(epoly, "_wrap", lambda cell: made.append(cell) or wrap(cell))
    monkeypatch.setattr(qseries, "_wrap", epoly._wrap)
    carries, axpy = [], epoly._axpy

    def spy_axpy(out, src, c, pairs):
        pairs = list(pairs)
        carries.extend(pairs)
        axpy(out, src, c, pairs)

    monkeypatch.setattr(formulas, "_axpy", spy_axpy)
    series = formulas._sigma_series(formula, window)
    monkeypatch.undo()
    terms = sum(map(len, formula.values()))
    monomials = len({(pu, pv) for t in formula for _, pu, pv, _ in t})
    assert (window.size, terms, monomials, len(carries)) == (49, 30, 16, 9347)
    assert len(made) <= window.size + 1 + terms + monomials
    assert series == formulas._evaluate(formula, window, parallel=True)


# the factors a to d of ALPHABET, and x, y
A, B, C, D, X, Y = ALPHABET[:4] + [(-1, 0, 0, (0, 1)), (1, 1, 1, (1, 0))]


def _cut_passes(monkeypatch, tuples) -> int:
    formula = {t: [((0, 0), ONE)] for t in tuples}
    window = Window((0, 0), (3, 3))
    return len(_passes(monkeypatch, lambda: formulas._evaluate(formula, window)))


def test_cut_of_one_group_is_its_length():
    assert formulas._cut([(A, B, X, Y)]) == 4
    assert formulas._cut([()]) == 0


def test_cut_at_the_fewest_trie_nodes(monkeypatch):
    # prefix nodes at k = 0..4: 0, 2, 5, 8, 11; suffix nodes of the rest: 7, 4, 2, 1, 0
    tuples = [(A, C, X, Y), (A, D, X, Y), (B, C, X, Y)]
    assert formulas._cut(tuples) == 1
    assert _cut_passes(monkeypatch, tuples) == 6


def test_cut_tie_goes_to_the_larger_depth(monkeypatch):
    # 4 nodes at k = 0 (suffix trie only) and at k = 1 (a, b, then x, y)
    tuples = [(A, X, Y), (B, X, Y)]
    assert formulas._cut(tuples) == 1
    assert _cut_passes(monkeypatch, tuples) == 4


def test_deep_shared_suffix_needs_no_recursion():
    n = sys.getrecursionlimit() + 100
    tail = tuple([(-1, 0, 0, (1,)), (1, 1, 0, (1,))] * (n // 2))[: n - 1]
    formula = {
        ((-1, 1, 1, (1,)),) + tail: [((0,), ONE)],
        ((1, 0, 1, (1,)),) + tail: [((1,), L), ((0,), -ONE)],
    }
    window = Window((0,), (2,))
    assert formulas._cut(list(formula)) == 1
    one_by_one = [formulas._evaluate({k: v}, window) for k, v in formula.items()]
    assert formulas._evaluate(formula, window) == sum(one_by_one, zero_series(window))


# -- one slot product -----------------------------------------------------------


def _slot_count(r, s):
    """|slots|: j choices of i for each alpha in block j, the interval (r_{j+1}, r_j]."""
    coranks = (r,) + tuple(r - x for x in s) + (0,)
    return sum(j * (coranks[j] - coranks[j + 1]) for j in range(1, len(s) + 1))


@st.composite
def small_cases(draw):
    """(genus, degrees, s): g <= 3, rank <= 4 and 1 to 3 quotient ranks."""
    r = draw(st.integers(1, 4))
    s = tuple(sorted(draw(st.lists(st.integers(0, r), min_size=1, max_size=3))))
    degrees = tuple(draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)))
    return draw(st.integers(0, 3)), degrees, s


@settings(max_examples=60, deadline=None)
@given(small_cases())
def test_every_formula_is_one_slot_product(case):
    g, degrees, s = case
    r, l = len(degrees), len(s)
    curve, bundle, profile = CurveSpec(g), BundleSpec(degrees), NestingProfile(r, s)
    flat, window = BundleSpec((degrees[0],) * r), Window((0,) * l, (0,) * l)
    # each builder and the factor count of its rule at one slot
    builds = [
        (lambda: motivic_partition_function(curve, bundle, profile, window), 2 * g + 2),
        (lambda: genus0_closed_form(flat, profile, window), 2),
        (lambda: euler_partition_function(curve, bundle, profile, window), abs(2 * g - 2)),
        (lambda: fixed_component_counts(bundle, profile, window), 1),
    ]
    for build, count in builds:
        with pytest.MonkeyPatch.context() as monkeypatch:
            tuples = list(_formula(monkeypatch, build))
        n = _slot_count(r, s) * count
        assert all(len(t) == n for t in tuples)
        sizes = formulas._trie_sizes(tuples)
        for d in range(n + 1):
            assert sizes[d] == sum(len({t[:e] for t in tuples}) for e in range(1, d + 1))
        # the walk stride reads the band moves of the first tuple alone: every
        # tuple sums the same negative moves and the same positive ones
        moves = [[pv - pu for _, pu, pv, _ in t] for t in tuples]
        bands = [(sum(d for d in m if d < 0), sum(d for d in m if d > 0)) for m in moves]
        assert bands == [bands[0]] * len(bands)


@pytest.mark.parametrize("genus", [0, 1, 2, 3])
def test_integer_products_pass_once_per_slot_factor(monkeypatch, genus):
    # blocks of sizes 2 and 1: 2 + 2 = 4 slots
    curve, bundle, profile = CurveSpec(genus), BundleSpec((0, 1, -1, 0)), NestingProfile(4, (1, 3))
    window = Window(default_lower_bounds(bundle, profile), (3, 3))
    euler = _passes(monkeypatch, lambda: euler_partition_function(curve, bundle, profile, window))
    counts = _passes(monkeypatch, lambda: fixed_component_counts(bundle, profile, window))
    assert len(euler) == abs(2 * genus - 2) * 4
    assert len(counts) == 4
