"""Fixed-component enumeration and the brute-force partition function."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperquot.combinat import (
    BundleSpec,
    CurveSpec,
    NestingProfile,
    block_permutations,
    flag_dimension,
)
from hyperquot.curve_motives import sym_class
from hyperquot.epoly import EPoly, euler_number, flag_motive
from hyperquot.formulas import (
    default_lower_bounds,
    euler_partition_function,
    fixed_component_counts,
    motivic_partition_function,
)
from hyperquot.oracle import (
    bb_stratum_dimension,
    enumerate_fixed_components,
    oracle_partition_function,
)
from hyperquot.qseries import MSeries, Window


def test_enumeration_rank_two_at_degree_zero():
    profile = NestingProfile(2, (1,))
    bundle = BundleSpec((0, 0))
    window = Window((0,), (0,))
    comps = [
        comp
        for sigma in block_permutations(profile)
        for comp in enumerate_fixed_components(sigma, bundle, profile, window)
    ]
    assert len(comps) == 2
    assert all(comp.degree == (0,) and comp.lengths == ((0,),) for comp in comps)


def test_enumeration_empty_below_minimal_degree():
    profile = NestingProfile(2, (1,))
    bundle = BundleSpec((2, 2))
    window = Window((-3,), (1,))  # below every prefactor
    sigma = block_permutations(profile)[0]
    assert list(enumerate_fixed_components(sigma, bundle, profile, window)) == []


def test_enumeration_rank_one_is_symmetric_products():
    profile = NestingProfile(1, (0,))
    bundle = BundleSpec((0,))
    window = Window((0,), (5,))
    (sigma,) = block_permutations(profile)
    comps = list(enumerate_fixed_components(sigma, bundle, profile, window))
    assert [c.lengths for c in comps] == [((n,),) for n in range(6)]
    series = oracle_partition_function(CurveSpec(2), bundle, profile, window)
    for n in range(6):
        assert series.coefficient((n,)) == sym_class(2, n)


def test_enumeration_unique_and_in_window():
    profile = NestingProfile(3, (1, 2))
    bundle = BundleSpec((1, 0, -1))
    window = Window((-2, -2), (2, 2))
    seen = set()
    for sigma in block_permutations(profile):
        for comp in enumerate_fixed_components(sigma, bundle, profile, window):
            key = (sigma.values, comp.lengths)
            assert key not in seen
            seen.add(key)
            assert window.contains(comp.degree)
            # tuples nondecreasing, nonnegative, lengths match block index
            for alpha, tup in enumerate(comp.lengths, start=1):
                assert len(tup) == profile.block_index(alpha)
                assert all(x >= 0 for x in tup)
                assert all(a <= b for a, b in zip(tup, tup[1:]))
            # derived degree recomputed from scratch
            for j in range(1, profile.length + 1):
                total = sigma.degree_prefactor(j, bundle.degrees)
                for alpha in range(1, profile.corank(j) + 1):
                    total += comp.lengths[alpha - 1][j - 1]
                assert comp.degree[j - 1] == total
    assert seen


def test_stratum_dimensions_rank_two():
    profile = NestingProfile(2, (1,))
    bundle = BundleSpec((0, 0))
    window = Window((0,), (4,))
    ident, trans = block_permutations(profile)
    for comp in enumerate_fixed_components(ident, bundle, profile, window):
        assert bb_stratum_dimension(comp, 0, bundle) == comp.lengths[0][0] + 1
    for comp in enumerate_fixed_components(trans, bundle, profile, window):
        assert bb_stratum_dimension(comp, 0, bundle) == 0


def test_stratum_dimension_vanishes_for_equal_degrees_genus_one():
    profile = NestingProfile(3, (1, 2))
    bundle = BundleSpec((2, 2, 2))
    # the window holds exactly the prefactor degrees, so every component has all n = 0
    window = Window((2, 4), (2, 4))
    count = 0
    for sigma in block_permutations(profile):
        for comp in enumerate_fixed_components(sigma, bundle, profile, window):
            assert all(all(x == 0 for x in tup) for tup in comp.lengths)
            assert bb_stratum_dimension(comp, 1, bundle) == 0
            count += 1
    assert count == len(block_permutations(profile))


def test_degree_zero_coefficient_is_flag_motive():
    for r, s in [(2, (1,)), (3, (1, 2)), (3, (2,)), (4, (1, 3))]:
        profile = NestingProfile(r, s)
        bundle = BundleSpec((0,) * r)
        window = Window((0,) * len(s), (0,) * len(s))
        series = oracle_partition_function(CurveSpec(0), bundle, profile, window)
        assert series.coefficient((0,) * len(s)) == flag_motive(profile)


def test_component_class_dimension():
    # each contribution has dimension = fiber + base
    profile = NestingProfile(2, (1, 1))
    bundle = BundleSpec((0, 1))
    curve = CurveSpec(2)
    window = Window((0, 0), (2, 2))
    from hyperquot.curve_motives import nested_hilb_class
    from hyperquot.epoly import lefschetz_power

    total = 0
    for sigma in block_permutations(profile):
        for comp in enumerate_fixed_components(sigma, bundle, profile, window):
            total += 1
            fiber = bb_stratum_dimension(comp, curve.genus, bundle)
            cls = lefschetz_power(fiber)
            base = 0
            for tup in comp.lengths:
                cls = cls * nested_hilb_class(curve.genus, tup)
                prev = 0
                for x in tup:
                    base += x - prev
                    prev = x
            assert cls.top_degree() == fiber + base
    assert total > 0


def test_against_formula_spot_checks():
    cases = [
        (0, (0, 0), (1,), (3,)),
        (1, (0, 2), (2,), (3,)),
        (2, (-1, 0, 1), (1, 2), (1, 1)),
        (3, (0, 0), (1, 1), (2, 2)),
        # rank 4 is the first rank where block permutations share a zeta
        # factor multiset: 6 permutations fall into 5 groups
        (1, (0, 1, 2, 3), (2,), (5,)),
        # here the two permutations of the shared group have distinct shifts
        (2, (-2, 0, 1, 2), (2,), (3,)),
    ]
    for g, degrees, s, hi in cases:
        curve = CurveSpec(g)
        bundle = BundleSpec(degrees)
        profile = NestingProfile(len(degrees), s)
        window = Window(default_lower_bounds(bundle, profile), hi)
        assert oracle_partition_function(curve, bundle, profile, window) == \
            motivic_partition_function(curve, bundle, profile, window)


def test_fixed_component_counts_match_enumeration():
    for r in range(1, 5):
        for l in range(1, 4):
            for s in itertools.combinations_with_replacement(range(r + 1), l):
                profile = NestingProfile(r, s)
                bundle = BundleSpec(tuple((3 * k + r + l) % 5 - 2 for k in range(r)))
                lo = default_lower_bounds(bundle, profile)
                hi = tuple(a + 2 for a in lo)
                for window in (Window(lo, hi), Window(tuple(a - 2 for a in lo), hi)):
                    counts = {}
                    for sigma in block_permutations(profile):
                        for comp in enumerate_fixed_components(sigma, bundle, profile, window):
                            counts[comp.degree] = counts.get(comp.degree, 0) + 1
                    series = fixed_component_counts(bundle, profile, window)
                    assert {d: euler_number(c) for d, c in series.items()} == counts


@st.composite
def small_inputs(draw):
    """(curve, bundle, profile, window) with g in 0..2, rank 1..4, length
    1..3, degrees in -2..2 and hi 0..3 steps above the default lower bound."""
    rank = draw(st.integers(1, 4))
    length = draw(st.integers(1, 3))
    s = tuple(sorted(draw(st.lists(st.integers(0, rank), min_size=length, max_size=length))))
    profile = NestingProfile(rank, s)
    bundle = BundleSpec(tuple(draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))))
    lo = default_lower_bounds(bundle, profile)
    hi = tuple(a + draw(st.integers(0, 3)) for a in lo)
    return CurveSpec(draw(st.integers(0, 2))), bundle, profile, Window(lo, hi)


@settings(max_examples=60, deadline=None)
@given(small_inputs())
def test_formula_matches_oracle_on_random_inputs(inputs):
    curve, bundle, profile, window = inputs
    motivic = motivic_partition_function(curve, bundle, profile, window)
    assert motivic == oracle_partition_function(curve, bundle, profile, window)
    # u = v = 1 specializes the motivic series to the Euler series
    specialized = MSeries(
        window, {d: EPoly.from_int(euler_number(c)) for d, c in motivic.items()}
    )
    assert specialized == euler_partition_function(curve, bundle, profile, window)


@settings(max_examples=100, deadline=None)
@given(small_inputs(), st.lists(st.integers(-2, 3), min_size=3, max_size=3))
def test_motive_is_nonzero_exactly_where_a_component_is(inputs, moves):
    """The motivic series is nonzero at exactly the cells that hold a fixed
    component, with no smoothness assumption.  The formula equals the
    oracle's sum over the fixed components at a cell of L**k times the
    class of a nonempty variety.  A nonempty variety of dimension n has a
    positive coefficient at (uv)**n, the count of its n-dimensional
    components, and no monomial above it in u or v; so at the largest
    k + n of a cell the sum's coefficient is a positive count, and an
    occupied cell is nonzero, while an empty cell is an empty sum.
    ``fixed_component_counts`` counts the components of each cell.  The
    window's lo is moved by -2 to +3."""
    curve, bundle, profile, window = inputs
    lo = tuple(a + m for a, m in zip(window.lo, moves))
    window = Window(lo, tuple(map(max, lo, window.hi)))
    motivic = motivic_partition_function(curve, bundle, profile, window)
    counts = fixed_component_counts(bundle, profile, window)
    assert [d for d, _ in motivic.items()] == [d for d, _ in counts.items()]


@settings(max_examples=15, deadline=None)
@given(small_inputs())
def test_parallel_matches_serial_on_random_inputs(inputs):
    serial = motivic_partition_function(*inputs)
    assert motivic_partition_function(*inputs, parallel=True) == serial
