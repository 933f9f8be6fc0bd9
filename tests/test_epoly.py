"""Coefficient-ring tests: exact arithmetic, specializations, Gaussian
binomials and multinomials."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperquot.combinat import InvalidProfile, NestingProfile, block_permutations
from hyperquot.epoly import (
    LEFSCHETZ,
    ONE,
    ZERO,
    EPoly,
    NegativeExponent,
    chi_y_polynomial,
    epoly_from_json,
    epoly_to_json,
    euler_number,
    flag_motive,
    format_epoly,
    lefschetz_power,
    poincare_polynomial,
)

L = LEFSCHETZ


def curve_class(g):
    return EPoly({(0, 0): 1, (1, 0): -g, (0, 1): -g, (1, 1): 1})


def test_arith_identity_cases():
    assert (ONE + L) * ONE == ONE + L
    assert (ONE + L) * (ONE - L) == ONE - L * L
    assert (ONE + L) - (ONE + L) == ZERO
    assert not (ONE + L - L - ONE)


def test_lefschetz_power():
    assert lefschetz_power(0) == ONE
    assert lefschetz_power(1) == EPoly.monomial(1, 1)
    assert lefschetz_power(-2) == EPoly.monomial(-2, -2)
    assert lefschetz_power(3) * lefschetz_power(-3) == ONE


def test_specialization_anchors():
    # the three conventions that pin the substitutions
    assert euler_number(ONE + L) == 2
    assert chi_y_polynomial(ONE + L) == {0: 1, 1: 1}
    for g in range(4):
        c = curve_class(g)
        assert euler_number(c) == 2 - 2 * g
        assert poincare_polynomial(c) == ({0: 1, 1: 2 * g, 2: 1} if g else {0: 1, 2: 1})


def test_specialization_rejects_laurent():
    a = lefschetz_power(-1)
    with pytest.raises(NegativeExponent):
        poincare_polynomial(a)
    with pytest.raises(NegativeExponent):
        chi_y_polynomial(a)
    assert euler_number(a) == 1  # euler is defined on Laurent input


def box_partition_census(d, r):
    """Independent oracle for the Grassmannian class: count partitions
    contained in a d x (r - d) box, by size (Schubert cells)."""
    cols = r - d
    counts = {}

    def rec(row, cap, size):
        if row == d:
            counts[size] = counts.get(size, 0) + 1
            return
        for w in range(cap + 1):
            rec(row + 1, w, size + w)

    rec(0, cols, 0)
    return counts


@pytest.mark.parametrize("d,r", [(0, 3), (1, 2), (2, 4), (1, 4), (2, 5), (3, 6)])
def test_grassmannian_vs_cell_census(d, r):
    expected = EPoly({(k, k): c for k, c in box_partition_census(d, r).items()})
    assert flag_motive(NestingProfile(r, (d,))) == expected


def test_grassmannian_known_values():
    assert flag_motive(NestingProfile(2, (1,))) == ONE + L
    assert flag_motive(NestingProfile(5, (0,))) == ONE
    assert flag_motive(NestingProfile(4, (2,))) == (ONE + L * L) * (ONE + L + L * L)


def test_grassmannian_range_errors():
    with pytest.raises(InvalidProfile):
        flag_motive(NestingProfile(2, (-1,)))
    with pytest.raises(InvalidProfile):
        flag_motive(NestingProfile(2, (3,)))


def inversion_census(blocks):
    """Partial-flag oracle (MacMahon): the distinct permutations of the
    multiset word 0^b_0 1^b_1 ... counted by inversions."""
    word = [letter for letter, b in enumerate(blocks) for _ in range(b)]
    counts = {}
    for p in set(itertools.permutations(word)):
        inv = sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])
        counts[inv] = counts.get(inv, 0) + 1
    return counts


def test_flag_motive_known_values():
    assert flag_motive(NestingProfile(2, (1,))) == ONE + L
    assert flag_motive(NestingProfile(3, (1, 2))) == (ONE + L) * (ONE + L + L * L)
    assert flag_motive(NestingProfile(4, (0, 0, 0))) == ONE


def all_profiles(rmax, lmax):
    for r in range(1, rmax + 1):
        for l in range(1, lmax + 1):
            for s in itertools.combinations_with_replacement(range(r + 1), l):
                yield NestingProfile(r, s)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_full_flag_vs_inversion_census(r):
    # every profile of rank r with l <= 3 (the full flags for r <= 4),
    # 200 profiles over the five ranks
    profiles = [p for p in all_profiles(r, 3) if p.rank == r]
    assert len(profiles) == sum(math.comb(r + l, l) for l in (1, 2, 3))
    for profile in profiles:
        census = inversion_census(profile.block_sizes())
        assert flag_motive(profile) == EPoly({(k, k): c for k, c in census.items()})


def test_flag_motive_euler_is_multinomial():
    for profile in all_profiles(6, 3):
        count = math.factorial(profile.rank)
        for b in profile.block_sizes():
            count //= math.factorial(b)
        assert euler_number(flag_motive(profile)) == count
        assert count == len(block_permutations(profile))


def test_flag_motive_degree_is_flag_dimension():
    from hyperquot.combinat import flag_dimension

    for profile in all_profiles(5, 3):
        cls = flag_motive(profile)
        assert cls.top_degree() == flag_dimension(profile)


def test_json_roundtrip_canonical():
    a = EPoly({(2, 0): 3, (-1, -1): -7, (0, 0): 1})
    data = epoly_to_json(a)
    assert data == [
        {"pu": -1, "pv": -1, "c": "-7"},
        {"pu": 0, "pv": 0, "c": "1"},
        {"pu": 2, "pv": 0, "c": "3"},
    ]
    assert epoly_from_json(data) == a


def test_unknown_dispatch_targets():
    # operations outside the ring are rejected, not approximated
    with pytest.raises(TypeError):
        ONE / ONE
    with pytest.raises(TypeError):
        ONE + 0.5
    with pytest.raises(TypeError):
        ONE ** 2


def test_format():
    assert format_epoly(ZERO) == "0"
    assert format_epoly(ONE + L) == "1 + L"
    assert format_epoly(curve_class(2)) == "1 - 2*v - 2*u + u*v"


epoly_terms = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-9, 9),
    max_size=5,
)
epolys = epoly_terms.map(EPoly)


@settings(max_examples=60, deadline=None)
@given(epolys, epolys, epolys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a
    assert a + ZERO == a
    assert a - a == ZERO


@settings(max_examples=60, deadline=None)
@given(epolys, epolys)
def test_euler_is_ring_homomorphism(a, b):
    assert euler_number(a * b) == euler_number(a) * euler_number(b)
    assert euler_number(a + b) == euler_number(a) + euler_number(b)


@settings(max_examples=40, deadline=None)
@given(epolys)
def test_json_roundtrip_property(a):
    assert epoly_from_json(epoly_to_json(a)) == a
