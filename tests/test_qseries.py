"""Windowed series algebra: truncated convolution, geometric expansions,
truncation coherence, and the dense row-major kernels against the
dict-of-degree-tuples algorithms they replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperquot.epoly import LEFSCHETZ, ONE, ZERO, EPoly
from hyperquot.qseries import (
    InvalidMonomial,
    MSeries,
    OutOfWindow,
    Window,
    WindowMismatch,
    geometric_divide,
    geometric_inverse,
    linear_multiply,
    multiply_sparse,
    one_series,
    series_from_json,
    series_monomial,
    series_to_json,
    shift_rewindow,
    zero_series,
)

L = LEFSCHETZ


def test_window_validation():
    with pytest.raises(WindowMismatch):
        Window((0, 0), (1,))
    with pytest.raises(WindowMismatch):
        Window((2,), (1,))
    w = Window((-1, 0), (1, 2))
    assert w.contains((0, 1)) and not w.contains((2, 0))
    assert list(w.cells())[0] == (-1, 0)
    assert w.size == 9
    assert [w.index(d) for d in w.cells()] == list(range(w.size))
    # a degree of the wrong arity is in no cell
    assert not w.contains((0,)) and not w.contains((0, 1, 0))
    assert MSeries(w, {(0,): ONE}) == zero_series(w)
    with pytest.raises(OutOfWindow):
        zero_series(w).coefficient((0,))


def test_constructor_coerces_coefficients():
    w = Window((0,), (2,))
    # an int is stored as the constant EPoly and renders as one
    s = MSeries(w, {(0,): 2})
    assert type(s.values[0]) is EPoly and s.values[0] == EPoly.from_int(2)
    assert series_to_json(s)["terms"] == [{"d": [0], "coeff": [{"pu": 0, "pv": 0, "c": "2"}]}]
    # anything else is a TypeError, inside the window or outside it
    for d in ((0,), (5,)):
        for c in (1.5, True):
            with pytest.raises(TypeError):
                MSeries(w, {d: c})
    # a degree must be a tuple of ints, and a bool is not one
    for d in ((True,), (False,), (1.0,)):
        with pytest.raises(TypeError):
            MSeries(w, {d: 1})
        with pytest.raises(TypeError):
            s.coefficient(d)
    # so is an int coefficient of every kernel
    one, two = one_series(w), series_monomial(w, (1,), 2)
    assert multiply_sparse(one, [((1,), 2)]) == two
    assert shift_rewindow(one, (1,), 2, w) == two
    assert geometric_divide(one, 2, (1,)).coefficient((2,)) == 4
    assert linear_multiply(one, -2, (1,)) == one + two


def test_series_monomial():
    w = Window((0,), (4,))
    assert series_monomial(w, (0,), ONE).coefficient((0,)) == ONE
    lw = Window((-2,), (2,))
    s = series_monomial(lw, (-1,), L)
    assert s.coefficient((-1,)) == L
    assert series_monomial(Window((0,), (2,)), (5,), ONE) == zero_series(Window((0,), (2,)))


def test_mul_examples():
    w = Window((0,), (4,))
    one_plus = series_monomial(w, (0,), ONE) + series_monomial(w, (1,), ONE)
    one_minus = series_monomial(w, (0,), ONE) + series_monomial(w, (1,), EPoly.from_int(-1))
    prod = one_plus * one_minus
    assert prod.coefficient((0,)) == ONE
    assert prod.coefficient((1,)) == ZERO
    assert prod.coefficient((2,)) == EPoly.from_int(-1)
    a = geometric_inverse(w, ONE, (1,))
    assert a * one_series(w) == a


def test_telescoping():
    w = Window((0,), (6,))
    geo = geometric_inverse(w, ONE, (1,))
    one_minus = series_monomial(w, (0,), ONE) + series_monomial(w, (1,), EPoly.from_int(-1))
    assert geo * one_minus == one_series(w)


def test_geometric_inverse_examples():
    w = Window((0,), (2,))
    s = geometric_inverse(w, L, (1,))
    assert s.coefficient((0,)) == ONE
    assert s.coefficient((1,)) == L
    assert s.coefficient((2,)) == L * L
    w2 = Window((0, 0), (2, 2))
    s2 = geometric_inverse(w2, ONE, (1, 1))
    assert s2.coefficient((1, 1)) == ONE
    assert s2.coefficient((1, 0)) == ZERO
    with pytest.raises(InvalidMonomial):
        geometric_inverse(w, ONE, (0,))
    with pytest.raises(InvalidMonomial):
        geometric_inverse(w2, ONE, (1, -1))


def test_coefficient_out_of_window():
    w = Window((0,), (3,))
    s = geometric_inverse(w, ONE, (1,))
    assert s.coefficient((3,)) == ONE
    with pytest.raises(OutOfWindow):
        s.coefficient((4,))


def test_window_mismatch():
    a = one_series(Window((0,), (3,)))
    b = one_series(Window((0,), (4,)))
    with pytest.raises(WindowMismatch):
        _ = a + b
    with pytest.raises(WindowMismatch):
        _ = a * b


def test_arithmetic_with_a_non_series_is_a_type_error():
    a = one_series(Window((0,), (3,)))
    with pytest.raises(TypeError):
        _ = a + 1
    with pytest.raises(TypeError):
        _ = a * 2


def test_restrict_coherence_direct_constructors():
    # keeping the coefficients of a big-window series that lie in a
    # subwindow equals constructing the series in the subwindow directly
    big = Window((0, 0), (3, 3))
    small = Window((0, 0), (2, 1))
    for c, m in [(ONE, (1, 0)), (L, (1, 1)), (ONE + L, (0, 1))]:
        assert MSeries(small, geometric_inverse(big, c, m).coeffs) == geometric_inverse(small, c, m)
    assert MSeries(small, one_series(big).coeffs) == one_series(small)


def test_shift_rewindow():
    w = Window((0,), (3,))
    s = geometric_inverse(w, ONE, (1,))
    target = Window((-2,), (1,))
    shifted = shift_rewindow(s, (-2,), L, target)
    assert shifted.coefficient((-2,)) == L
    assert shifted.coefficient((1,)) == L


def test_json_roundtrip():
    w = Window((-1, 0), (2, 2))
    s = series_monomial(w, (-1, 2), ONE + L) + series_monomial(w, (0, 0), EPoly.from_int(-3))
    data = series_to_json(s)
    assert [t["d"] for t in data["terms"]] == [[-1, 2], [0, 0]]
    assert series_from_json(data) == s


def test_json_parse_truncates_nothing():
    # a term the window cannot hold is an error, not dropped, and so is a
    # repeated degree, a bool degree or a missing field
    one = [{"pu": 0, "pv": 0, "c": "1"}]
    for terms, error in [
        ([{"d": [5], "coeff": one}], ValueError),
        ([{"d": [1, 2], "coeff": one}], ValueError),
        ([{"d": [1], "coeff": one}, {"d": [1], "coeff": one}], ValueError),
        ([{"d": [True], "coeff": one}], TypeError),
        ([{"coeff": one}], ValueError),
    ]:
        with pytest.raises(error):
            series_from_json({"window": {"lo": [0], "hi": [2]}, "terms": terms})
    with pytest.raises(TypeError):
        series_from_json({"window": {"lo": [False], "hi": [2]}, "terms": []})
    with pytest.raises(ValueError):
        series_from_json({"window": {"lo": [0], "hi": [2]}})


# -- property tests ------------------------------------------------------------

small_epolys = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.integers(-4, 4),
    max_size=3,
).map(EPoly)


def series_in(window):
    cells = list(window.cells())
    return st.dictionaries(
        st.sampled_from(cells), small_epolys, max_size=4
    ).map(lambda d: MSeries(window, d))


W1 = Window((0,), (5,))
W2 = Window((0, 0), (3, 2))


@settings(max_examples=40, deadline=None)
@given(series_in(W1), series_in(W1), series_in(W1))
def test_mul_commutative_associative_1d(a, b, c):
    # supports bounded below by the window's lower bound 0
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=30, deadline=None)
@given(series_in(W2), series_in(W2))
def test_mul_commutative_2d(a, b):
    assert a * b == b * a


@settings(max_examples=30, deadline=None)
@given(small_epolys, st.sampled_from([(1,), (2,)]))
def test_geometric_inverse_inverts(c, m):
    w = Window((0,), (6,))
    geo = geometric_inverse(w, c, m)
    one_minus = series_monomial(w, (0,) , ONE) + series_monomial(w, m, EPoly.from_int(-1) * c)
    assert geo * one_minus == one_series(w)


@settings(max_examples=30, deadline=None)
@given(series_in(W2), small_epolys, st.sampled_from([(1, 0), (0, 1), (1, 1)]))
def test_geometric_divide_matches_inverse_multiplication(a, c, m):
    assert geometric_divide(a, c, m) == a * geometric_inverse(W2, c, m)
    # the linear pass is the two-term product, and undoes the division
    assert linear_multiply(a, c, m) == multiply_sparse(a, [((0, 0), ONE), (m, -c)])
    assert linear_multiply(geometric_divide(a, c, m), c, m) == a


@settings(max_examples=30, deadline=None)
@given(series_in(W2), small_epolys, small_epolys)
def test_multiply_sparse_matches_mul(a, c0, c1):
    sparse = [((0, 0), c0), ((1, 1), c1)]
    explicit = series_monomial(W2, (0, 0), c0) + series_monomial(W2, (1, 1), c1)
    assert multiply_sparse(a, sparse) == a * explicit


# -- dense kernels against the dict-of-tuples algorithms -------------------------
#
# The reference functions below are the algorithms the row-major kernels
# replaced: series as dicts from degree tuples to nonzero coefficients,
# every shift built as a tuple and tested against the window.


def ref_filter(window, coeffs):
    return {tuple(d): c for d, c in coeffs.items() if c and window.contains(d)}


def ref_add(a, b):
    out = dict(a)
    for d, c in b.items():
        s = c if d not in out else out[d] + c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def ref_multiply_sparse(window, a, terms):
    out = {}
    for delta, coeff in terms:
        if not coeff:
            continue
        for d, c in a.items():
            nd = tuple(x + y for x, y in zip(d, delta))
            if window.contains(nd):
                out[nd] = out.get(nd, ZERO) + coeff * c
    return {d: c for d, c in out.items() if c}


def ref_mul(window, a, b):
    return ref_multiply_sparse(window, a, list(b.items()))


def ref_geometric_divide(window, a, c, m):
    out = {}
    for d in window.cells():
        prev_d = tuple(x - y for x, y in zip(d, m))
        prev = out.get(prev_d) if all(x >= a0 for x, a0 in zip(prev_d, window.lo)) else None
        val = a.get(d)
        if prev is not None:
            carry = c * prev
            val = carry if val is None else val + carry
        if val:
            out[d] = val
    return out


def ref_shift_rewindow(a, delta, c, window):
    out = {}
    for d, v in a.items():
        nd = tuple(x + y for x, y in zip(d, delta))
        if window.contains(nd) and c * v:
            out[nd] = c * v
    return out


@st.composite
def windows(draw, arity, lo=st.integers(-3, 0), extent=st.integers(1, 4)):
    lo = tuple(draw(lo) for _ in range(arity))
    return Window(lo, tuple(a + draw(extent) - 1 for a in lo))


def degrees_near(window, spill=2):
    """Degrees in and around a window, so constructors see cells to drop."""
    return st.tuples(*(st.integers(a - spill, b + spill) for a, b in zip(window.lo, window.hi)))


def assert_matches(series, window, ref):
    """A dense series equals a reference dict cell by cell, in every view."""
    assert series.window == window
    assert len(series.values) == window.size
    assert series.coeffs == ref
    assert series.items() == sorted(ref.items())
    for d in window.cells():
        assert series.coefficient(d) == ref.get(d, ZERO)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dense_kernels_match_dict_reference(data):
    arity = data.draw(st.integers(1, 3))
    win = data.draw(windows(arity))
    coeff_dicts = st.dictionaries(degrees_near(win), small_epolys, max_size=6)
    raw = [data.draw(coeff_dicts), data.draw(coeff_dicts)]
    a, b = (ref_filter(win, r) for r in raw)
    sa, sb = (MSeries(win, r) for r in raw)
    assert_matches(sa, win, a)
    assert_matches(sa + sb, win, ref_add(a, b))
    assert_matches(sa * sb, win, ref_mul(win, a, b))

    shift = st.tuples(*[st.integers(-5, 5)] * arity)
    terms = data.draw(st.lists(st.tuples(shift, small_epolys), max_size=3))
    assert_matches(multiply_sparse(sa, terms), win, ref_multiply_sparse(win, a, terms))

    m = data.draw(st.tuples(*[st.integers(0, 2)] * arity).filter(any))
    c = data.draw(small_epolys)
    assert_matches(geometric_divide(sa, c, m), win, ref_geometric_divide(win, a, c, m))

    # another shape and offset; lo in -8..4 makes disjoint targets common
    target = data.draw(windows(arity, lo=st.integers(-8, 4)))
    delta = data.draw(shift)
    assert_matches(
        shift_rewindow(sa, delta, c, target), target, ref_shift_rewindow(a, delta, c, target)
    )


def test_shift_rewindow_into_disjoint_window_is_zero():
    s = geometric_inverse(Window((0, 0), (3, 3)), L, (1, 1))
    far = Window((10, -4), (12, -2))
    assert shift_rewindow(s, (1, 1), ONE, far) == zero_series(far)
    assert shift_rewindow(s, (-1, 1), ONE, Window((-2, 0), (-1, 0))) == zero_series(
        Window((-2, 0), (-1, 0))
    )
