"""Zeta function of a curve: symmetric-product classes, rationality,
classical specializations, twisted evaluations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperquot import curve_motives
from hyperquot.curve_motives import (
    InvalidTuple,
    nested_hilb_class,
    sym_class,
    sym_classes,
    zeta_divide,
    zeta_eval,
    zeta_rationality_check,
)
from hyperquot.epoly import (
    LEFSCHETZ,
    ONE,
    EPoly,
    euler_number,
    lefschetz_power,
    poincare_polynomial,
)
from hyperquot.qseries import (
    InvalidMonomial,
    Window,
    geometric_divide,
    geometric_inverse,
    linear_multiply,
    series_monomial,
    zero_series,
)

L = LEFSCHETZ


def projective_space(n):
    return EPoly({(k, k): 1 for k in range(n + 1)})


def test_genus0_coefficients_are_projective_spaces():
    for n, c in enumerate(sym_classes(0, 8)):
        assert c == projective_space(n)


def test_degree_zero_and_one_coefficients():
    for g in range(5):
        z = sym_classes(g, 3)
        assert z[0] == ONE
        assert z[1] == EPoly({(0, 0): 1, (1, 0): -g, (0, 1): -g, (1, 1): 1})


def test_coefficient_dimension():
    for g in range(4):
        for n, c in enumerate(sym_classes(g, 7)):
            assert c.top_degree() == n
            assert c.min_exponent() >= 0


def test_euler_specialization_matches_binomial_expansion():
    # euler numbers of symmetric products are the coefficients of (1-t)^(2g-2)
    for g in range(5):
        for n in range(9):
            if g == 0:
                expected = n + 1
            else:
                expected = (-1) ** n * math.comb(2 * g - 2, n) if n <= 2 * g - 2 else 0
            assert euler_number(sym_class(g, n)) == expected


def upoly_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def macdonald_poincare(g, order):
    """Independent oracle: expand (1+zt)^(2g) / ((1-t)(1-z^2 t)) to the
    given order in t, with coefficients as z-polynomials in dict form."""
    out = [dict() for _ in range(order + 1)]
    for k in range(min(2 * g, order) + 1):
        binom = math.comb(2 * g, k)
        # times sum_a t^a sum_b z^(2b) t^b
        for rest in range(order - k + 1):
            coeff = out[k + rest]
            for b in range(rest + 1):
                key = k + 2 * b
                coeff[key] = coeff.get(key, 0) + binom
    return out


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_poincare_specialization_matches_macdonald(g):
    expected = macdonald_poincare(g, 8)
    for n, c in enumerate(sym_classes(g, 8)):
        assert poincare_polynomial(c) == expected[n]


def test_rationality():
    assert zeta_rationality_check(0, 10)
    assert zeta_rationality_check(1, 10)
    assert zeta_rationality_check(3, 12)
    for g in range(6):
        assert zeta_rationality_check(g, 2 * g + 10)
    with pytest.raises(ValueError):
        zeta_rationality_check(2, 5)


@pytest.mark.parametrize("g", [0, 1, 2, 3])
@pytest.mark.parametrize("where", ["first", "last"])
def test_rationality_fails_on_a_perturbed_class(g, where, monkeypatch):
    # one class off by ONE breaks the vanishing at its own index: 2g + 1 is
    # the first index checked (for g = 0 its identity reads c[-1] = 0),
    # 2g + 10 the last
    order = 2 * g + 10
    index = 2 * g + 1 if where == "first" else order
    classes = sym_classes(g, order)
    classes[index] = classes[index] + ONE
    monkeypatch.setattr(curve_motives, "sym_classes", lambda genus, n: classes[: n + 1])
    assert zeta_rationality_check(g, order) is False


def test_sym_classes_agree_across_orders():
    for g in (0, 1, 3):
        long, short = sym_classes(g, 8), sym_classes(g, 3)
        assert len(long) == 9 and len(short) == 4
        assert short == long[:4]
        assert sym_class(g, 5) == long[5]


def test_sym_class_is_cached():
    assert sym_class(2, 6) is sym_class(2, 6)
    assert sym_classes(2, 6)[6] is sym_class(2, 6)


def test_sym_class_rejects_negative_arguments():
    for bad in (lambda: sym_class(-1, 2), lambda: sym_class(1, -1), lambda: sym_classes(-1, 2)):
        with pytest.raises(ValueError):
            bad()


def test_nested_hilb_class():
    for g in (0, 2):
        for n in range(4):
            assert nested_hilb_class(g, (n,)) == sym_class(g, n)
    assert nested_hilb_class(3, (0, 0, 0)) == ONE
    assert nested_hilb_class(0, (1, 3)) == (ONE + L) * (ONE + L + L * L)
    with pytest.raises(InvalidTuple):
        nested_hilb_class(0, (2, 1))
    with pytest.raises(InvalidTuple):
        nested_hilb_class(0, (-1, 0))


def test_zeta_eval_examples():
    w = Window((0,), (4,))
    s = zeta_eval(0, 0, (1,), w)
    for n in range(5):
        assert s.coefficient((n,)) == projective_space(n)
    # twist by one Lefschetz power
    w2 = Window((0,), (2,))
    t = zeta_eval(0, 1, (1,), w2)
    assert t.coefficient((0,)) == ONE
    assert t.coefficient((1,)) == (ONE + L) * L
    assert t.coefficient((2,)) == (ONE + L + L * L) * L * L
    for g in range(3):
        for a in (0, 2):
            assert zeta_eval(g, a, (1, 1), Window((0, 0), (2, 2))).coefficient((0, 0)) == ONE
    with pytest.raises(InvalidMonomial):
        zeta_eval(0, 0, (0,), w)
    with pytest.raises(InvalidMonomial):
        zeta_eval(0, 0, (1, -1), Window((0, 0), (2, 2)))


def test_divisions_reject_non_integer_directions():
    # a fractional direction is an error, not truncated to (1,)
    series = series_monomial(Window((0,), (3,)), (0,), 1)
    for direction in [(1.7,), (1.0,)]:
        with pytest.raises(TypeError):
            geometric_divide(series, 1, direction)
        with pytest.raises(TypeError):
            linear_multiply(series, 1, direction)
        with pytest.raises(TypeError):
            zeta_divide(series, 1, 0, direction)
    for direction in [(0,), (-1,), (1, 0)]:
        for step in (geometric_divide, linear_multiply):
            with pytest.raises(InvalidMonomial):
                step(series, 1, direction)
    # a coefficient that is neither an int nor an EPoly is a TypeError, also on a zero series
    window = series.window
    for c in (1.5, "1", None):
        for step in (geometric_divide, linear_multiply):
            for a in (series, zero_series(window)):
                with pytest.raises(TypeError):
                    step(a, c, (1,))
        with pytest.raises(TypeError):
            geometric_inverse(window, c, (1,))
        with pytest.raises(TypeError):
            series_monomial(window, (0,), c)
    # an int coefficient is the constant EPoly, stored as one
    a = geometric_inverse(window, L, (1,))
    for c in (-2, 0, 1, 3):
        e = EPoly.from_int(c)
        pairs = [
            (geometric_divide(a, c, (1,)), geometric_divide(a, e, (1,))),
            (linear_multiply(a, c, (1,)), linear_multiply(a, e, (1,))),
            (geometric_inverse(window, c, (1,)), geometric_inverse(window, e, (1,))),
            (series_monomial(window, (1,), c), series_monomial(window, (1,), e)),
        ]
        for got, want in pairs:
            assert got == want
            assert all(type(v) is EPoly for v in got.values)


def test_zeta_divide_rejects_negative_genus():
    series = series_monomial(Window((0,), (3,)), (0,), 1)
    for genus in (-1, -2):
        with pytest.raises(ValueError):
            zeta_divide(series, genus, 0, (1,))


def test_zeta_eval_matches_substitution():
    # substituting t -> L^a q^m into the plain expansion, coefficient by coefficient
    g, a = 2, 3
    w = Window((0, 0), (3, 2))
    s = zeta_eval(g, a, (1, 1), w)
    coeffs = sym_classes(g, 2)
    for n, c in enumerate(coeffs):
        assert s.coefficient((n, n)) == c * lefschetz_power(a * n)
    assert s.coefficient((1, 0)) == EPoly()


@pytest.mark.parametrize("g", [0, 1, 3])
@pytest.mark.parametrize("a", [0, 1, 4])
@pytest.mark.parametrize("m", [(1, 0), (1, 1)])
def test_zeta_divide_matches_zeta_eval(g, a, m):
    # the split form (2g linear passes, two geometric divisions) against
    # the definitional expansion
    w = Window((0, 0), (3, 3))
    assert zeta_divide(series_monomial(w, (0, 0), 1), g, a, m) == zeta_eval(g, a, m, w)


@st.composite
def zeta_cases(draw):
    """(genus, twist, direction, window): 1-2 variables, lower bound <= 0."""
    arity = draw(st.integers(1, 2))
    lo = tuple(draw(st.integers(-2, 0)) for _ in range(arity))
    hi = tuple(draw(st.integers(0, 4)) for _ in range(arity))
    m = draw(st.tuples(*[st.integers(0, 2)] * arity).filter(any))
    return draw(st.integers(0, 3)), draw(st.integers(-2, 4)), m, Window(lo, hi)


@settings(max_examples=60, deadline=None)
@given(zeta_cases())
def test_zeta_divide_matches_zeta_eval_on_random_windows(case):
    g, a, m, w = case
    assert zeta_divide(series_monomial(w, (0,) * w.arity, 1), g, a, m) == zeta_eval(g, a, m, w)


def test_zeta_divide_is_multiplicative():
    w = Window((0,), (4,))
    a = zeta_eval(1, 0, (1,), w)
    b = zeta_eval(2, 1, (1,), w)
    assert zeta_divide(a, 2, 1, (1,)) == a * b
