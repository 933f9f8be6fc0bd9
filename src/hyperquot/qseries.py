"""Windowed multivariate Laurent series over E-polynomial coefficients.

A series lives in a box window [lo_1, hi_1] x ... x [lo_l, hi_l] of degree
vectors; coefficients outside the window are discarded.  Multiplication is
truncated convolution, which reproduces the true product coefficients
whenever both operands carry every term of their full expansion from the
window's lower bound up (in particular whenever supports are nonnegative
and the lower bound is <= 0).

Degree vectors are plain tuples of ints throughout.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator, Mapping

from .combinat import _int_tuple, _Value
from .epoly import _PLUS, ZERO, EPoly, _axpy, _cell, _coerce, _wrap, epoly_from_json, epoly_to_json


class WindowMismatch(ValueError):
    """Operands live in different windows."""


class InvalidMonomial(ValueError):
    """Geometric expansion of q**m needs m >= 0 componentwise and m != 0."""


class OutOfWindow(KeyError):
    """Coefficient requested at a degree outside the window."""


class Window(_Value):
    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: tuple[int, ...], hi: tuple[int, ...]):
        lo = _int_tuple("window lo", lo)
        hi = _int_tuple("window hi", hi)
        if len(lo) != len(hi):
            raise WindowMismatch("window bounds of different lengths")
        if not lo:
            raise WindowMismatch("window must have at least one variable")
        for a, b in zip(lo, hi):
            if a > b:
                raise WindowMismatch(f"empty window: lo={lo}, hi={hi}")
        self._freeze(lo, hi)

    @property
    def arity(self) -> int:
        return len(self.lo)

    @property
    def size(self) -> int:
        return math.prod(b - a + 1 for a, b in zip(self.lo, self.hi))

    def contains(self, d: tuple[int, ...]) -> bool:
        return len(d) == len(self.lo) and all(a <= x <= b for x, a, b in zip(d, self.lo, self.hi))

    def cells(self) -> Iterator[tuple[int, ...]]:
        """All degree vectors in the window, in ascending lexicographic order."""
        return itertools.product(
            *(range(a, b + 1) for a, b in zip(self.lo, self.hi))
        )

    def index(self, d: tuple[int, ...]) -> int:
        """Row-major position of a cell: its place in ``cells()``."""
        i = 0
        for x, a, b in zip(d, self.lo, self.hi):
            i = i * (b - a + 1) + x - a
        return i


@functools.lru_cache(maxsize=64)
def _shift_pairs(src: Window, dst: Window, delta: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The (source index, target index) pairs of the cells d of ``src`` with
    d + delta inside ``dst``, both row-major, ascending.  Memoized: the
    factor passes of one series walk share a frame and a few directions, so
    most calls are hits, and the pairs are a tuple so no caller changes
    them."""
    pairs = [(0, 0)]
    for s_lo, s_hi, t_lo, t_hi, dk in zip(src.lo, src.hi, dst.lo, dst.hi, delta):
        s_n, t_n = s_hi - s_lo + 1, t_hi - t_lo + 1
        xs = range(max(s_lo, t_lo - dk), min(s_hi, t_hi - dk) + 1)
        pairs = [
            (i * s_n + x - s_lo, j * t_n + x + dk - t_lo) for i, j in pairs for x in xs
        ]
    return tuple(pairs)


def _validate_direction(window: Window, m: tuple[int, ...]):
    """m as a tuple, checked to be a direction of ``window``: ints, not
    bools (else TypeError), one per variable, every entry >= 0 and not all
    zero (else InvalidMonomial).  A tuple is checked in place, with no copy
    and no generator, since every kernel call checks its direction."""
    if type(m) is not tuple:
        m = tuple(m)
    for x in m:
        if type(x) is not int:
            raise TypeError(f"direction: expected ints, got {m!r}")
    if len(m) != window.arity:
        raise InvalidMonomial(f"direction {m} has wrong arity for window")
    if min(m) < 0 or not any(m):
        raise InvalidMonomial(f"direction must be >= 0 and nonzero, got {m}")
    return m


class MSeries:
    """Coefficients over a window, stored densely: ``values`` lists one
    coefficient per cell of the window in row-major order (the order of
    ``Window.cells``), with ``ZERO`` in empty cells.  Degrees pass through
    ``_int_tuple`` and coefficients through ``_coerce``: an int becomes a
    constant, and anything but an int or an ``EPoly`` (a bool included)
    raises ``TypeError``, inside the window or not.

    Equality is window equality plus cell-by-cell coefficient equality.
    """

    __slots__ = ("window", "values")

    def __init__(self, window: Window, coeffs: Mapping[tuple[int, ...], EPoly] | None = None):
        self.window = window
        self.values = [ZERO] * window.size
        for d, c in (coeffs or {}).items():
            d, c = _int_tuple("degree", d), _coerce(c)
            if c and window.contains(d):
                self.values[window.index(d)] = c

    @property
    def coeffs(self) -> dict[tuple[int, ...], EPoly]:
        """The nonzero coefficients by degree."""
        return dict(self.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MSeries):
            return NotImplemented
        return self.window == other.window and self.values == other.values

    def __bool__(self) -> bool:
        return any(self.values)

    def items(self) -> list[tuple[tuple[int, ...], EPoly]]:
        """The nonzero coefficients in ascending degree order."""
        return [(d, c) for d, c in zip(self.window.cells(), self.values) if c]

    def coefficient(self, d: tuple[int, ...]) -> EPoly:
        d = _int_tuple("degree", d)
        if not self.window.contains(d):
            raise OutOfWindow(f"degree {d} outside window {self.window}")
        return self.values[self.window.index(d)]

    def _check_same_window(self, other: MSeries):
        if self.window != other.window:
            raise WindowMismatch(
                f"windows differ: {self.window} vs {other.window}"
            )

    def __add__(self, other: MSeries) -> MSeries:
        if not isinstance(other, MSeries):
            return NotImplemented
        self._check_same_window(other)
        out = list(map(_cell, self.values))
        _axpy(out, list(map(_cell, other.values)), _PLUS, enumerate(range(len(out))))
        return _dense(self.window, out)

    def __mul__(self, other: MSeries) -> MSeries:
        if not isinstance(other, MSeries):
            return NotImplemented
        self._check_same_window(other)
        return multiply_sparse(self, other.items())

    def __repr__(self):
        n = sum(1 for c in self.values if c)
        return f"MSeries(window={self.window.lo}..{self.window.hi}, {n} terms)"


def _dense(window: Window, cells: list) -> MSeries:
    """The series of a row-major cell list of ``window`` (``epoly._cell``),
    each cell wrapped once and nothing re-checked."""
    res = MSeries.__new__(MSeries)
    res.window = window
    res.values = list(map(_wrap, cells))
    return res


def zero_series(window: Window) -> MSeries:
    return MSeries(window)


def series_monomial(window: Window, d: tuple[int, ...], c: EPoly | int) -> MSeries:
    """Single-term series c * q**d; the zero series if d falls outside the window."""
    return MSeries(window, {tuple(d): c})


def geometric_inverse(window: Window, c: EPoly | int, m: tuple[int, ...]) -> MSeries:
    """The expansion of 1/(1 - c*q**m): sum of c**k q**(k*m), truncated."""
    m = _validate_direction(window, m)
    c = _coerce(c)
    bound = min(b // x for b, x in zip(window.hi, m) if x)
    out: dict[tuple[int, ...], EPoly] = {}
    ck = EPoly.from_int(1)
    for k in range(max(bound, -1) + 1):
        d = tuple(k * x for x in m)
        if ck and window.contains(d):
            out[d] = ck
        ck = ck * c
    return MSeries(window, out)


def geometric_divide(a: MSeries, c: EPoly | int, m: tuple[int, ...]) -> MSeries:
    """a / (1 - c*q**m) truncated to a's window, via the linear recurrence
    out[d] = a[d] + c * out[d - m].  Agrees with multiplication by
    ``geometric_inverse`` but costs one pass over the window."""
    m = _validate_direction(a.window, m)
    out = list(map(_cell, a.values))
    # m >= 0 and m != 0, so every source index is below its target and is
    # final by the time the ascending pairs reach it.
    _axpy(out, out, _cell(_coerce(c)), _shift_pairs(a.window, a.window, m))
    return _dense(a.window, out)


def linear_multiply(a: MSeries, c: EPoly | int, m: tuple[int, ...]) -> MSeries:
    """a * (1 - c*q**m) truncated to a's window: out[d] = a[d] - c * a[d - m]
    in one descending pass, so each a[d - m] is read before it changes."""
    m = _validate_direction(a.window, m)
    out = list(map(_cell, a.values))
    _axpy(out, out, _cell(-_coerce(c)), reversed(_shift_pairs(a.window, a.window, m)))
    return _dense(a.window, out)


def multiply_sparse(a: MSeries, terms: Iterable[tuple[tuple[int, ...], EPoly]]) -> MSeries:
    """Multiply by a sparse polynomial given as (degree shift, coefficient)
    pairs, truncating to a's window."""
    src, out = list(map(_cell, a.values)), [0] * len(a.values)
    for delta, coeff in terms:
        if coeff:
            _axpy(out, src, _cell(_coerce(coeff)), _shift_pairs(a.window, a.window, delta))
    return _dense(a.window, out)


def shift_rewindow(a: MSeries, delta: tuple[int, ...], c: EPoly | int, window: Window) -> MSeries:
    """c * q**delta * a, re-truncated into a new window.  The caller is
    responsible for a being a full expansion of window - delta."""
    out = [0] * window.size
    _axpy(out, list(map(_cell, a.values)), _cell(_coerce(c)), _shift_pairs(a.window, window, delta))
    return _dense(window, out)


def series_to_json(a: MSeries) -> dict:
    """Canonical JSON form with terms sorted lexicographically by degree."""
    return {
        "window": {"lo": list(a.window.lo), "hi": list(a.window.hi)},
        "terms": [
            {"d": list(d), "coeff": epoly_to_json(c)} for d, c in a.items()
        ],
    }


def series_from_json(data: dict) -> MSeries:
    """Inverse of ``series_to_json``, truncating nothing: a degree of the
    wrong length, outside the window or repeated, or a missing field,
    raises ValueError, and a non-int entry (a bool included) TypeError."""
    try:
        win = Window(tuple(data["window"]["lo"]), tuple(data["window"]["hi"]))
        coeffs = {_int_tuple("degree", t["d"]): epoly_from_json(t["coeff"]) for t in data["terms"]}
    except KeyError as e:
        raise ValueError(f"missing field {e}") from None
    if len(coeffs) != len(data["terms"]) or not all(map(win.contains, coeffs)):
        raise ValueError(f"a degree is repeated or outside window {win}")
    return MSeries(win, coeffs)
