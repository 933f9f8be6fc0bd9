"""Coefficient-ring tests: exact arithmetic, specializations, Gaussian
binomials and multinomials, and the packed EPoly against the dict-of-terms
algorithm it replaced."""

import itertools
import math
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperquot import cli, epoly
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
from hyperquot.qseries import MSeries, Window

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


def test_json_parse_rejects_malformed_values():
    # no field is truncated, reparsed or dropped: exponents are ints, not bools,
    # coefficients decimal strings, every field is present and each pair occurs once
    for bad in [
        [{"pu": 1.5, "pv": 0, "c": "3"}],
        [{"pu": 0, "pv": 0.9, "c": "3"}],
        [{"pu": 0, "pv": 0, "c": 2.7}],
        [{"pu": 0, "pv": 0, "c": "1_000"}],
        [{"pu": True, "pv": 0, "c": "3"}],
        [{"pu": 0, "c": "3"}],
        [{"pu": 0, "pv": 0}],
        [{"pu": 0, "pv": 0, "c": "1"}, {"pu": 0, "pv": 0, "c": "2"}],
    ]:
        with pytest.raises((TypeError, ValueError)):
            epoly_from_json(bad)


def test_pickle_keeps_packed_layout():
    # the offsets sit below the smallest exponents once the (0, 0) term cancels
    a = EPoly({(0, 0): 1, (2, 3): 5}) + EPoly.from_int(-1)
    assert (a._ou, a._ov) == (0, 0) and a.terms == {(2, 3): 5}
    b = pickle.loads(pickle.dumps(a))
    assert b == a
    assert (b._n, b._ou, b._ov, b._k, b._w) == (a._n, a._ou, a._ov, a._k, a._w)


def test_unknown_dispatch_targets():
    # operations outside the ring are rejected, not approximated
    with pytest.raises(TypeError):
        ONE / ONE
    with pytest.raises(TypeError):
        ONE + 0.5
    with pytest.raises(TypeError):
        ONE ** 2


def test_int_on_either_side():
    # an int operand coerces to a constant on the left as on the right
    assert 1 + L == L + 1 == EPoly({(0, 0): 1, (1, 1): 1})
    assert 2 * L == L * 2 == EPoly({(1, 1): 2})
    assert 1 - L == -(L - 1) == EPoly({(0, 0): 1, (1, 1): -1})


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


# -- the dict-of-terms reference ---------------------------------------------
#
# The algorithm EPoly used before the packed layout: a mapping (u-exponent,
# v-exponent) -> coefficient with no zeros, summed term by term and
# multiplied pair by pair.  The specializations and the JSON form are read
# straight off the mapping.


def ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def ref_neg(a):
    return {k: -c for k, c in a.items()}


def ref_mul(a, b):
    out = {}
    for (pu1, pv1), c1 in a.items():
        for (pu2, pv2), c2 in b.items():
            k = (pu1 + pu2, pv1 + pv2)
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def ref_poincare(a):
    out = {}
    for (pu, pv), c in a.items():
        out[pu + pv] = out.get(pu + pv, 0) + c * (-1) ** (pu + pv)
    return {k: c for k, c in out.items() if c}


def ref_chi_y(a):
    out = {}
    for (pu, _pv), c in a.items():
        out[pu] = out.get(pu, 0) + c
    return {k: c for k, c in out.items() if c}


def slot_terms(p):
    """p's terms read from every balanced base-2**K digit of its integer,
    whatever its bounds say: biased by 2**(K - 1) per slot, every slot's
    bytes are read, and slot i holds the coefficient of u**a v**b with
    a = ou + i // W and b - a = ov + i % W."""
    n, k, w = p._n, p._k, p._w
    kb, half = k // 8, 1 << (k - 1)
    slots = n.bit_length() // k + 2
    bias = int.from_bytes(half.to_bytes(kb, "little") * slots, "little")
    raw = (n + bias).to_bytes(slots * kb, "little")
    out = {}
    for i in range(slots):
        d = int.from_bytes(raw[i * kb : (i + 1) * kb], "little") - half
        if d:
            pu = p._ou + i // w
            out[(pu, pu + p._ov + i % w)] = d
    return out


def row_terms(p):
    """(pu, pv, c) of every nonzero digit the row reader yields, in its
    order, after checking the rows' shape: consecutive u-exponents from ou,
    each row starting at v-exponent pu + ov and at most vh + 1 digits long."""
    rows = list(epoly._rows(p))
    assert [pu for pu, _, _ in rows] == list(range(p._ou, p._ou + len(rows)))
    for pu, pv, row in rows:
        assert pv == pu + p._ov and len(row) <= p._vh + 1
    return [(pu, pv, c) for pu, pv0, row in rows for pv, c in enumerate(row, pv0) if c]


def assert_matches(p, ref):
    """Every read of the public surface of p agrees with the mapping ref,
    and p's bounds cover every digit of its integer."""
    assert slot_terms(p) == ref
    assert p._vh < p._w and not p._inf >> (p._k - 1)
    for (pu, pv), c in ref.items():
        assert p._ou <= pu and p._ov <= pv - pu
        assert pv - pu - p._ov <= p._vh and abs(c) <= p._inf
    assert row_terms(p) == [(pu, pv, c) for (pu, pv), c in sorted(ref.items())]
    assert dict(p.terms) == ref
    assert bool(p) is bool(ref)
    fresh = EPoly(ref)
    assert p == fresh and fresh == p
    assert hash(p) == hash(fresh)
    exps = [e for key in ref for e in key]
    assert p.min_exponent() == (min(exps) if ref else None)
    assert p.top_degree() == (max(exps) if ref else None)
    assert p.is_diagonal() == all(pu == pv for pu, pv in ref)
    assert dict(p.reversal(3).terms) == {(3 - pu, 3 - pv): c for (pu, pv), c in ref.items()}
    assert euler_number(p) == sum(ref.values())
    if exps and min(exps) < 0:
        with pytest.raises(NegativeExponent):
            poincare_polynomial(p)
        with pytest.raises(NegativeExponent):
            chi_y_polynomial(p)
    else:
        assert poincare_polynomial(p) == ref_poincare(ref)
        assert chi_y_polynomial(p) == ref_chi_y(ref)
    assert epoly_to_json(p) == [
        {"pu": pu, "pv": pv, "c": str(ref[(pu, pv)])} for pu, pv in sorted(ref)
    ]
    assert pickle.loads(pickle.dumps(p)) == p


def wide_terms(min_size=0, max_size=40):
    return st.dictionaries(
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
        st.integers(-(2**130), 2**130),
        min_size=min_size,
        max_size=max_size,
    )


@st.composite
def dense_terms(draw):
    """10 to 40 terms in an 8 x 8 box somewhere in -40..40."""
    ou, ov = draw(st.integers(-40, 33)), draw(st.integers(-40, 33))
    cells = st.tuples(st.integers(ou, ou + 7), st.integers(ov, ov + 7))
    coeffs = st.integers(-(2**130), 2**130)
    return draw(st.dictionaries(cells, coeffs, min_size=10, max_size=40))


# one term (one _axpy carry) and several terms, sparse in their box or
# dense in it (one multiply of the repacked operands)
term_sets = st.one_of(wide_terms(1, 1), wide_terms(0, 6), wide_terms(7, 40), dense_terms())


@settings(max_examples=60, deadline=None)
@given(term_sets, term_sets, wide_terms(0, 6), st.integers(-(2**70), 2**70))
def test_packed_matches_dict_reference(a, b, c, n):
    pa, pb, pc = EPoly(a), EPoly(b), EPoly(c)
    a, b, c = ({key: x for key, x in d.items() if x} for d in (a, b, c))
    assert_matches(pa, a)
    assert_matches(pa + pb, ref_add(a, b))
    assert_matches(pa - pb, ref_add(a, ref_neg(b)))
    assert_matches(-pa, ref_neg(a))
    ab = ref_mul(a, b)
    assert_matches(pa * pb, ab)
    assert_matches((pa * pb) * pc, ref_mul(ab, c))
    assert_matches(pa * pb + pc, ref_add(ab, c))
    assert_matches(pa * pb - pb * pa, {})
    assert_matches(pa * n, ref_mul(a, {(0, 0): n} if n else {}))
    assert_matches(n + pa, ref_add(a, {(0, 0): n} if n else {}))
    assert (pa == pb) is (a == b)


def layout(p):
    return p._k, p._w


def test_v_span_doubles_past_the_starting_stride():
    a, b = {(0, 0): 1, (0, 30): 1}, {(0, 0): 1, (2, 5): -2, (1, 1): 3}
    pa, pb = EPoly(a), EPoly(b)
    prod = pa * pb
    assert prod._w > max(pa._w, pb._w)
    assert_matches(prod, ref_mul(a, b))
    c = {(1, 90): 4}
    total = pa + EPoly(c)  # the union's v-span, 90, doubles the stride twice
    assert total._w >= 4 * pa._w
    assert_matches(total, ref_add(a, c))


def test_coefficient_crosses_the_slot_through_a_sum():
    m = 2**31 - 1
    a = {(0, 0): m, (1, 2): -m, (0, 1): 5}
    pa = EPoly(a)
    total = pa + pa
    assert total._k > pa._k
    assert_matches(total, ref_add(a, a))
    assert_matches(total - pa - pa, {})


@pytest.mark.parametrize("size", [3, 9])
def test_coefficient_crosses_the_slot_through_a_product(size):
    # three terms sparse in their box, nine dense in it
    a = {(i % 3, i // 3): 2**16 for i in range(size)}
    pa = EPoly(a)
    prod = pa * pa
    assert prod._k > pa._k
    assert_matches(prod, ref_mul(a, a))


def edge_value(c, vspan):
    """Dense in its first row, v-span vspan, largest |c| equal to c."""
    x = {(0, j): (-1) ** j * (j + 1) for j in range(vspan + 1)}
    x[(0, 0)], x[(1, vspan // 2)] = c, -c
    return x


@pytest.mark.parametrize(
    "c, vspan, k, w",
    [(2**31 - 1, 7, 32, 32), (2**31, 7, 64, 32), (5, 31, 32, 32), (5, 32, 32, 64)],
)
def test_layout_edges_through_every_path(c, vspan, k, w):
    x = edge_value(c, vspan)
    px = EPoly(x)
    assert layout(px) == (k, w)
    y = {(0, 0): 3, (2, 40): -1}
    assert_matches(px + px, ref_add(x, x))
    assert_matches(px + EPoly(y), ref_add(x, y))
    assert_matches(px - px, {})
    s = {(0, 0): 1, (0, 5): -2}  # sparse: two terms in six slots
    assert_matches(px * EPoly(s), ref_mul(x, s))
    assert_matches(px * px, ref_mul(x, x))  # dense
    assert_matches(px * EPoly.monomial(2, -1, -3), ref_mul(x, {(2, -1): -3}))  # one slot


@pytest.mark.parametrize("coeff", [2**31 - 1, 2**40, 2**70])
def test_decode_without_memoryview_cast(coeff, monkeypatch):
    # 4-, 8- and 12-byte slots, read one slot at a time as on big-endian hosts
    monkeypatch.setattr(epoly, "_CAST", {})
    a = {(0, 0): coeff, (0, 3): -1, (1, 0): 7, (2, 33): -coeff, (-1, 2): 2}
    b = {(0, 0): -coeff, (3, 1): 1}
    pa = -EPoly(ref_neg(a))  # built without its terms, so they are decoded
    assert pa._k // 8 == {2**31 - 1: 4, 2**40: 8, 2**70: 12}[coeff]
    assert row_terms(pa) == [(pu, pv, c) for (pu, pv), c in sorted(a.items())]
    assert dict(pa.terms) == a
    assert dict((EPoly(a) + EPoly(b)).terms) == ref_add(a, b)
    assert dict((EPoly(a) * EPoly(b)).terms) == ref_mul(a, b)


@pytest.mark.parametrize("coeff", [2**31 - 1, 2**40, 2**70])
def test_row_reader_fallback_reads_like_the_cast(coeff, monkeypatch):
    # the per-slot fallback and memoryview.cast give the same terms and the
    # same JSON, for the series renderer too, at 4-, 8- and 12-byte slots
    a = {(0, 0): coeff, (0, 3): -1, (1, 0): 7, (2, 33): -coeff, (-1, 2): 2, (5, 4): -3}
    series = MSeries(Window((0,), (2,)), {(0,): EPoly(a), (2,): EPoly(a) * lefschetz_power(-3)})
    assert series.values[0]._k // 8 == {2**31 - 1: 4, 2**40: 8, 2**70: 12}[coeff]

    def reads():
        values = [-(-x) for x in series.values]  # fresh values, their terms not built
        report = cli._render(cli._series(series, None))
        return [dict(x.terms) for x in values], [epoly_to_json(x) for x in values], report

    cast = reads()
    monkeypatch.setattr(epoly, "_CAST", {})
    assert reads() == cast
    assert cast[0][0] == a


def test_walk_reads_past_a_loose_v_span_bound():
    # the sum keeps the wide value's bounds after it cancels: stride 64 and
    # vh 40 over the band b - a, while the terms left lie in a band of two
    # diagonals, 4 and 5, inside it
    wide = EPoly({(0, 0): 1, (0, 40): -1, (3, 33): 5})
    narrow = {(1, 5): 3, (2, 6): -1, (4, 9): 2**40}
    p = (wide + EPoly(narrow)) + -wide
    assert p._w == 64 and p._vh == 40 and p._ov == 0
    assert {pv - pu for pu, pv in narrow} == {4, 5}
    assert_matches(p, narrow)


def test_band_diagonal_value_keeps_the_narrow_stride():
    # a pu-span of 64 in a band 0..31 wide: the rows are 32 slots, where a
    # stride over the v-span (94) would be 128
    x = {(a, a + a % 32): (-1) ** a * (a + 1) for a in range(64)}
    px = EPoly(x)
    assert layout(px) == (32, 32) and px._vh == 31
    assert_matches(px, x)
    lx = lefschetz_power(40) * px  # a power of L moves the band along the diagonal
    assert layout(lx) == (32, 32)
    assert_matches(lx, ref_mul(x, {(40, 40): 1}))
    y = {(0, 0): 1, (1, 1): -2}  # a polynomial in L has a band one diagonal wide
    assert_matches(px * EPoly(y), ref_mul(x, y))
    assert layout(px * EPoly(y)) == (32, 32)


def test_offsets_down_to_minus_eight():
    a = {(-8, -3): 5, (2, -8): -1, (0, 0): 7}
    pa = EPoly(a)
    assert_matches(pa, a)
    shifted = lefschetz_power(-8) * pa
    assert_matches(shifted, ref_mul(a, {(-8, -8): 1}))
    b = {(-1, -1): 2, (3, 0): 1}
    assert_matches(shifted * EPoly(b) + pa, ref_add(ref_mul(ref_mul(a, {(-8, -8): 1}), b), a))


def test_results_that_cancel_to_zero():
    a = {(0, 0): 3, (1, 4): -2, (2, 2): 2**100}
    b = {(5, 5): 1, (0, 7): 9, (-3, 1): -4, (1, 1): 2, (2, 0): 1, (0, 2): 1, (4, 4): 1}
    pa, pb = EPoly(a), EPoly(b)
    for zero in (pa - pa, (pa + pb) - pa - pb, pa * pb - EPoly(ref_mul(a, b))):
        assert not zero
        assert zero == 0 and zero == ZERO
        assert hash(zero) == hash(0)
        assert_matches(zero, {})


def test_constants_hash_like_ints():
    assert hash(ONE) == hash(1)
    assert len({ONE, 1}) == 1
    assert {1: "a"}.get(ONE) == "a"
    assert hash(ZERO) == hash(0) and ZERO == 0
    big = EPoly.monomial(5, 9, 2**70)
    seven = (EPoly.from_int(7) + big) - big  # 7 in a wide layout
    assert layout(seven) != layout(EPoly.from_int(7))
    assert seven == 7 and hash(seven) == hash(7)
    assert {7: "b"}.get(seven) == "b"


def test_equal_values_in_different_layouts():
    x = EPoly({(0, 0): 1, (0, 1): -3, (2, 1): 4})
    big = EPoly.monomial(5, 9, 2**70)
    y = (x + big) - big
    assert layout(y) != layout(x)
    assert y == x and x == y
    assert hash(y) == hash(x)
    assert len({x, y}) == 1
    assert y != x + ONE
    # anything but an EPoly or an int is unequal, and comparing never raises
    for value in (ZERO, x, y):
        for other in (1.5, "x", None):
            assert not (value == other) and not (other == value)
            assert value != other and other != value


def test_constructor_rejects_non_integers():
    bads = ({(0, 0): 2.0}, {(0, 0): 0.0}, {(0.0, 0): 1}, {(0, 1.5): 1}, {(0, 0): "1"})
    # a bool is an int subclass, and is refused like any other non-int
    bools = ({(0, 0): True}, {(0, 0): False}, {(True, 0): 1}, {(0, False): 1})
    for bad in bads + bools:
        with pytest.raises(TypeError):
            EPoly(bad)
    for args in ((1, 1, 0.5), (0, 0, True), (True, 0, 1), (0, False, 1)):
        with pytest.raises(TypeError):
            EPoly.monomial(*args)
    for n in (1.0, True, False):
        with pytest.raises(TypeError):
            EPoly.from_int(n)
    with pytest.raises(TypeError):
        lefschetz_power(1.5)
    with pytest.raises(TypeError):
        ONE + True
    with pytest.raises(TypeError):
        True * ONE
    with pytest.raises(TypeError):
        True - ONE
    # so a bool is not an int to __eq__ either: unequal, and no error
    assert not (ONE == True) and not (True == ONE) and ONE != True
    assert not (ZERO == False) and ZERO != False


# -- the fused accumulate loop -------------------------------------------------

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")


def no_operators(*keep):
    """A context in which every EPoly arithmetic operator but ``keep``
    raises: _axpy is where two packed values meet, so it calls none of them."""

    def refuse(*args):
        raise AssertionError("_axpy called an EPoly operator")

    refused = [name for name in OPERATORS if name not in keep]
    return mock.patch.multiple(EPoly, **dict.fromkeys(refused, refuse))


def cell_axpy(out, src, c, pairs):
    """epoly._axpy on the cells of the values of out and src (src may be
    out), under no_operators; out's cells are wrapped back into out."""
    cells = list(map(epoly._cell, out))
    src_cells = cells if src is out else list(map(epoly._cell, src))
    with no_operators():
        epoly._axpy(cells, src_cells, epoly._cell(c), pairs)
    out[:] = map(epoly._wrap, cells)


# coefficients near the 32-bit slot edge and v-exponents whose span crosses
# the 32-slot stride, so sums and carries widen K or W
accumulate_terms = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 40)),
    st.one_of(
        st.integers(-9, 9),
        st.integers(2**31 - 8, 2**31 + 2),
        st.integers(-(2**31) - 2, -(2**31) + 8),
    ),
    max_size=5,
)


@st.composite
def accumulate_values(draw):
    """A value, zero included, in its own layout or in a wider one."""
    x = EPoly(draw(accumulate_terms))
    if draw(st.booleans()):
        big = EPoly.monomial(draw(st.integers(-4, 4)), 70, 2**70)
        x = (x + big) - big
    return x


# one-slot multipliers: zero, +-1, small counts, and +-2**40, whose carry of
# a value near the 32-bit slot edge outgrows the slot by itself
multipliers = st.one_of(
    st.builds(EPoly.monomial, st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([1, -1])),
    st.sampled_from([ONE, ZERO]),
    st.builds(
        EPoly.monomial,
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.sampled_from([3, -3, 2**40, -(2**40)]),
    ),
    st.builds(EPoly, wide_terms(2, 4)),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(accumulate_values(), min_size=1, max_size=6),
    st.lists(accumulate_values(), min_size=1, max_size=6),
    multipliers,
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    st.booleans(),
    st.booleans(),
)
def test_accumulate_matches_plain_multiply_and_add(src, out, c, pairs, in_place, cancel):
    if in_place:
        src = out
    pairs = [(i % len(src), j % len(out)) for i, j in pairs]
    if cancel and pairs:  # the first carry cancels its target to zero
        i, j = pairs[0]
        out[j] = -(c * src[i])
    expect = [slot_terms(y) for y in out]
    reads = expect if in_place else [slot_terms(x) for x in src]
    ct = slot_terms(c)
    for i, j in pairs:
        expect[j] = ref_add(expect[j], ref_mul(ct, reads[i]))
    # x + y and y + x over the same draws, before _axpy replaces out's values
    sums = [(x + y, y + x, ref_add(slot_terms(x), slot_terms(y))) for x in src for y in out]
    cell_axpy(out, src, c, pairs)
    for got, want in zip(out, expect):
        assert_matches(got, want)
    for xy, yx, want in sums:
        assert_matches(xy, want)
        assert_matches(yx, want)


# -- one-slot carries: no copy to scale by +-1 or to shift by 0 ------------------


def test_unit_carry_into_an_empty_cell_keeps_the_integer():
    x = EPoly({(0, 0): 3, (1, 4): -2, (2, 2): 5})
    for c in (ONE, EPoly.monomial(2, 3)):
        out = [0]
        epoly._axpy(out, [epoly._cell(x)], epoly._cell(c), ((0, 0),))
        assert out[0][0] is x._n
        assert_matches(epoly._wrap(out[0]), ref_mul(slot_terms(c), slot_terms(x)))


def test_minus_one_carry_onto_itself_is_zero():
    x = EPoly({(0, 0): 3, (1, 4): -2, (2, 2): 2**40})
    out = [epoly._cell(x)]
    epoly._axpy(out, out, epoly._cell(-ONE), ((0, 0),))
    assert out == [0]


@pytest.mark.parametrize("c0", [1, -1, 3, -3])
def test_carry_that_moves_both_operands(c0):
    # the target starts at the lower u-exponent (0 against 1) and the carried
    # source at the lower band offset (0 against 2), so both are shifted
    y = {(0, 2): 5, (1, 4): -7}
    x = {(0, 0): 3, (1, 2): 2**20, (0, 3): -1}
    py, px, c = EPoly(y), EPoly(x), EPoly.monomial(1, 1, c0)
    assert (py._ou, py._ov, px._ou + c._ou, px._ov + c._ov) == (0, 2, 1, 0)
    out = [py]
    cell_axpy(out, [px], c, ((0, 0),))
    got = out[0]
    assert_matches(got, ref_add(y, ref_mul({(1, 1): c0}, x)))
    assert (got._ou, got._ov, got._k, got._w) == (0, 0, 32, 32)
    assert (got._vh, got._inf) == (3, 7 + 2**20 * abs(c0))


# -- products: one _axpy carry into [ZERO] --------------------------------------

PIN_X = {(0, 0): 3, (1, 4): -2, (2, 2): 2**30}
PIN_Y = {(0, 1): 5, (-1, 0): -7, (1, 3): 1}
PIN_WIDE = {(0, 0): 2**40, (0, 40): -1, (3, 5): 9}  # 64-bit slots, band 40 wide


@pytest.mark.parametrize(
    "a, b, pinned",
    [
        # (k, w, ou, ov, vh, inf): the bounds and layout each product is built with
        (PIN_X, {(1, 2): 1}, (32, 32, 1, 1, 3, 2**30)),
        ({(-1, 0): -1}, PIN_X, (32, 32, -1, 1, 3, 2**30)),
        (PIN_X, {(1, 1): 3}, (64, 32, 1, 0, 3, 3 * 2**30)),
        ({(2, -1): -3}, PIN_X, (64, 32, 2, -3, 3, 3 * 2**30)),
        (PIN_X, PIN_Y, (64, 32, -1, 1, 4, 7 * (2**30 + 5))),
        (PIN_Y, PIN_X, (64, 32, -1, 1, 4, 7 * (2**30 + 5))),
        (PIN_WIDE, PIN_Y, (64, 64, -1, 1, 41, 13 * 2**40)),
        (PIN_X, PIN_WIDE, (96, 64, 0, 0, 43, 2**40 * (2**30 + 5))),
    ],
)
def test_product_layouts_are_pinned(a, b, pinned):
    p = EPoly(a) * EPoly(b)
    assert (p._k, p._w, p._ou, p._ov, p._vh, p._inf) == pinned
    assert_matches(p, ref_mul(a, b))


@pytest.mark.parametrize(
    "c",
    [{(1, 2): 1}, {(1, 1): -1}, {(2, -1): 3}, {(0, 0): -(2**40)}, PIN_Y, PIN_WIDE],
)
@pytest.mark.parametrize("target", [{}, {(0, 2): 5, (1, 4): -7}])
def test_carry_makes_one_value(monkeypatch, c, target):
    # one-slot and several-slot c into an empty and a nonempty cell: the carry
    # is put in packed form and added as a bare cell, so no value is made
    # until the cell is wrapped, and then one
    out, src, cc = [epoly._cell(EPoly(target))], [epoly._cell(EPoly(PIN_X))], epoly._cell(EPoly(c))
    made, wrap = [], epoly._wrap
    monkeypatch.setattr(epoly, "_wrap", lambda cell: made.append(cell) or wrap(cell))
    with no_operators():
        epoly._axpy(out, src, cc, ((0, 0),))
    assert made == []
    got = epoly._wrap(out[0])
    assert len(made) == 1
    monkeypatch.undo()
    assert_matches(got, ref_add(target, ref_mul(c, PIN_X)))


def test_equality_and_difference_are_one_carry():
    # == and - are each one _axpy carry with c = -1, with no negated copy of
    # the other operand: == calls no operator, and - no other one
    a, b = EPoly(PIN_X), EPoly(PIN_Y)
    with no_operators():
        assert a == EPoly(PIN_X) and a != b and not a == b
        assert ZERO == 0 and ONE == 1 and not ONE == -1 and L != ONE
    with no_operators("__sub__", "__rsub__"):
        diff, flipped = a - b, 1 - a
    assert_matches(diff, ref_add(PIN_X, {key: -c for key, c in PIN_Y.items()}))
    assert_matches(flipped, ref_add({(0, 0): 1}, {key: -c for key, c in PIN_X.items()}))


@pytest.mark.parametrize(
    "x, c",
    [
        ({(1, 2): 3}, PIN_Y),  # one-slot src[i]: a scaled copy of c
        ({(0, 0): -(2**40)}, PIN_Y),  # ... whose inf outgrows c's slot
        ({(0, 0): 1, (0, 1): -2}, PIN_WIDE),  # src[i] has the fewer slots
        (PIN_WIDE, PIN_Y),  # c has the fewer slots
        (PIN_Y, {(0, 1): 1, (-1, 0): 9, (1, 3): -1}),  # as many slots
    ],
)
def test_several_slot_carry_takes_the_product_layout(x, c):
    # the carry c * x into an empty cell is the product c * x, bounds and
    # layout included, whichever operand has the fewer slots
    want = EPoly(c) * EPoly(x)
    out = [ZERO]
    cell_axpy(out, [EPoly(x)], EPoly(c), ((0, 0),))
    (got,) = out
    assert (got._k, got._w, got._vh, got._inf) == (want._k, want._w, want._vh, want._inf)
    assert_matches(got, ref_mul(c, x))


@pytest.mark.parametrize("w", [1, 2, 13, 33])
def test_value_at_another_stride(w):
    # a value moved into stride w reads the same; one whose band is w or
    # more slots wide stays as it is
    for x in ({(0, 0): 3}, {(2, 2): -1, (3, 3): 2**40}, {(0, 1): 5, (-1, 0): -7, (4, 4): 1}):
        px = EPoly(x)
        moved = epoly._at_stride(px, w)
        if px._vh < w:
            assert (moved._w, moved._k, moved._vh, moved._inf) == (w, px._k, px._vh, px._inf)
        else:
            assert moved is px
        assert_matches(moved, x)
