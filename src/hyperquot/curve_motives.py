"""Kapranov zeta function of a curve in the E-polynomial realization.

The generating function of symmetric-product classes of a genus-g curve is
rational with numerator (1 - u t)**g (1 - v t)**g and denominator
(1 - t)(1 - L t); the numerator convention is pinned by requiring the
t-linear coefficient to be the class of the curve itself,
1 - g u - g v + uv.  Symmetric-product classes are cached per (genus, n).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .epoly import LEFSCHETZ, ONE, EPoly, lefschetz_power
from .qseries import MSeries, Window, _validate_direction, geometric_divide, linear_multiply


class InvalidTuple(ValueError):
    """Nested lengths must be nondecreasing and nonnegative."""


@lru_cache(maxsize=None)
def zeta_numerator(genus: int) -> tuple[EPoly, ...]:
    """Coefficients of (1 - u t)**g (1 - v t)**g in t, degrees 0..2g;
    memoized per genus, like the symmetric-product classes."""
    out = []
    for k in range(2 * genus + 1):
        terms = {}
        for a in range(max(0, k - genus), min(genus, k) + 1):
            b = k - a
            terms[(a, b)] = (-1) ** k * math.comb(genus, a) * math.comb(genus, b)
        out.append(EPoly(terms))
    return tuple(out)


def _projective_space(n: int) -> EPoly:
    return EPoly({(k, k): 1 for k in range(n + 1)})


@lru_cache(maxsize=None)
def sym_class(genus: int, n: int) -> EPoly:
    """Class of Sym^n C for a genus-g curve."""
    if genus < 0 or n < 0:
        raise ValueError("genus and n must be >= 0")
    num = zeta_numerator(genus)
    c = EPoly()
    for k in range(min(2 * genus, n) + 1):
        c = c + num[k] * _projective_space(n - k)
    return c


def sym_classes(genus: int, order: int) -> list[EPoly]:
    """Classes of Sym^0 C .. Sym^order C for a genus-g curve."""
    if genus < 0 or order < 0:
        raise ValueError("genus and order must be >= 0")
    return [sym_class(genus, n) for n in range(order + 1)]


def zeta_rationality_check(genus: int, order: int) -> bool:
    """Multiply the zeta expansion by (1 - t)(1 - L t) and verify every
    coefficient in degrees 2g+1..order vanishes, i.e. the numerator is a
    polynomial of degree at most 2g."""
    if order < 2 * genus + 2:
        raise ValueError("order must be at least 2*genus + 2")
    c = sym_classes(genus, order)
    # the t**n coefficient of (1 - t)(1 - L t) Z(t) is
    # c[n] - c[n-1] - L (c[n-1] - c[n-2]) with c[-1] = 0, so the only
    # product is by the monomial L
    prev = c[2 * genus] - c[2 * genus - 1] if genus else c[0]
    for n in range(2 * genus + 1, order + 1):
        diff = c[n] - c[n - 1]
        if diff - LEFSCHETZ * prev:
            return False
        prev = diff
    return True


def nested_hilb_class(genus: int, lengths: tuple[int, ...]) -> EPoly:
    """Class of the nested Hilbert scheme of points with the given
    nondecreasing length tuple: the product of the symmetric-product
    classes of the successive differences."""
    prev = 0
    out = ONE
    for n in lengths:
        if n < 0:
            raise InvalidTuple(f"lengths must be nonnegative: {tuple(lengths)}")
        if n < prev:
            raise InvalidTuple(f"lengths must be nondecreasing: {tuple(lengths)}")
        out = out * sym_class(genus, n - prev)
        prev = n
    return out


def zeta_eval(genus: int, a: int, m: tuple[int, ...], window: Window) -> MSeries:
    """The zeta function evaluated at L**a q**m: the series
    sum_n [Sym^n C] L**(a n) q**(n m), truncated to the window."""
    m = _validate_direction(window, m)
    bound = min(b // x for b, x in zip(window.hi, m) if x)
    out = {}
    if bound >= 0:
        for n, c in enumerate(sym_classes(genus, bound)):
            d = tuple(n * x for x in m)
            if window.contains(d):
                v = c * lefschetz_power(a * n)
                if v:
                    out[d] = v
    return MSeries(window, out)


def zeta_factors(genus: int, a: int) -> tuple[tuple[int, int, int], ...]:
    """The zeta function at x = L**a q**m as monomial factors (e, pu, pv),
    each (1 - u**pu v**pv x)**e: the numerator (1 - u L**a x)**g
    (1 - v L**a x)**g, then the denominator (1 - L**a x)(1 - L**(a+1) x)."""
    if genus < 0:
        raise ValueError("genus must be >= 0")
    return ((1, a + 1, a),) * genus + ((1, a, a + 1),) * genus + ((-1, a, a), (-1, a + 1, a + 1))


def zeta_divide(series: MSeries, genus: int, a: int, m: tuple[int, ...]) -> MSeries:
    """Multiply a series by the zeta function evaluated at L**a q**m,
    truncating to the series window: one pass per factor of
    ``zeta_factors``.  Exact within the window provided the operand has
    nonnegative support and the window's lower bound is <= 0."""
    for e, pu, pv in zeta_factors(genus, a):
        step = linear_multiply if e > 0 else geometric_divide
        series = step(series, EPoly.monomial(pu, pv), m)
    return series
