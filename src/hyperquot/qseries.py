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

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .epoly import ZERO, EPoly, epoly_from_json, epoly_to_json


class WindowMismatch(ValueError):
    """Operands live in different windows, or a restriction is not a subwindow."""


class InvalidMonomial(ValueError):
    """Geometric expansion of q**m needs m >= 0 componentwise and m != 0."""


class OutOfWindow(KeyError):
    """Coefficient requested at a degree outside the window."""


@dataclass(frozen=True)
class Window:
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(int(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(int(x) for x in self.hi))
        if len(self.lo) != len(self.hi):
            raise WindowMismatch("window bounds of different lengths")
        if not self.lo:
            raise WindowMismatch("window must have at least one variable")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise WindowMismatch(f"empty window: lo={self.lo}, hi={self.hi}")

    @property
    def arity(self) -> int:
        return len(self.lo)

    def contains(self, d: tuple[int, ...]) -> bool:
        return all(a <= x <= b for x, a, b in zip(d, self.lo, self.hi))

    def cells(self) -> Iterator[tuple[int, ...]]:
        """All degree vectors in the window, in ascending lexicographic order."""
        return itertools.product(
            *(range(a, b + 1) for a, b in zip(self.lo, self.hi))
        )

    def covers(self, other: Window) -> bool:
        return (
            self.arity == other.arity
            and all(a <= c for a, c in zip(self.lo, other.lo))
            and all(d <= b for b, d in zip(self.hi, other.hi))
        )


def _validate_direction(window: Window, m: tuple[int, ...]):
    m = tuple(int(x) for x in m)
    if len(m) != window.arity:
        raise InvalidMonomial(f"direction {m} has wrong arity for window")
    if any(x < 0 for x in m) or not any(m):
        raise InvalidMonomial(f"direction must be >= 0 and nonzero, got {m}")
    return m


class MSeries:
    """Finitely supported coefficients inside a window.

    Equality is window equality plus degree-by-degree coefficient equality.
    The zero series is the empty mapping.
    """

    __slots__ = ("window", "coeffs")

    def __init__(self, window: Window, coeffs: Mapping[tuple[int, ...], EPoly] | None = None):
        self.window = window
        clean: dict[tuple[int, ...], EPoly] = {}
        if coeffs:
            for d, c in coeffs.items():
                d = tuple(d)
                if c and window.contains(d):
                    clean[d] = c
        self.coeffs = clean

    def __eq__(self, other) -> bool:
        if not isinstance(other, MSeries):
            return NotImplemented
        return self.window == other.window and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def items(self) -> list[tuple[tuple[int, ...], EPoly]]:
        return sorted(self.coeffs.items())

    def coefficient(self, d: tuple[int, ...]) -> EPoly:
        d = tuple(d)
        if not self.window.contains(d):
            raise OutOfWindow(f"degree {d} outside window {self.window}")
        return self.coeffs.get(d, ZERO)

    def _check_same_window(self, other: MSeries):
        if self.window != other.window:
            raise WindowMismatch(
                f"windows differ: {self.window} vs {other.window}"
            )

    def __add__(self, other: MSeries) -> MSeries:
        self._check_same_window(other)
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = out.get(d)
            s = c if s is None else s + c
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        res = MSeries.__new__(MSeries)
        res.window = self.window
        res.coeffs = out
        return res

    def __mul__(self, other: MSeries) -> MSeries:
        self._check_same_window(other)
        win = self.window
        out: dict[tuple[int, ...], EPoly] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = tuple(x + y for x, y in zip(d1, d2))
                if not win.contains(d):
                    continue
                prod = c1 * c2
                s = out.get(d)
                s = prod if s is None else s + prod
                if s:
                    out[d] = s
                else:
                    out.pop(d, None)
        res = MSeries.__new__(MSeries)
        res.window = win
        res.coeffs = out
        return res

    def restrict(self, window: Window) -> MSeries:
        """Truncate to a subwindow of the current window."""
        if not self.window.covers(window):
            raise WindowMismatch(
                f"{window} is not a subwindow of {self.window}"
            )
        return MSeries(window, {d: c for d, c in self.coeffs.items() if window.contains(d)})

    def __repr__(self):
        n = len(self.coeffs)
        return f"MSeries(window={self.window.lo}..{self.window.hi}, {n} terms)"


def zero_series(window: Window) -> MSeries:
    return MSeries(window)


def series_monomial(window: Window, d: tuple[int, ...], c: EPoly | int) -> MSeries:
    """Single-term series c * q**d; the zero series if d falls outside the window."""
    if isinstance(c, int):
        c = EPoly.from_int(c)
    return MSeries(window, {tuple(d): c})


def one_series(window: Window) -> MSeries:
    return series_monomial(window, (0,) * window.arity, 1)


def geometric_inverse(window: Window, c: EPoly | int, m: tuple[int, ...]) -> MSeries:
    """The expansion of 1/(1 - c*q**m): sum of c**k q**(k*m), truncated."""
    m = _validate_direction(window, m)
    if isinstance(c, int):
        c = EPoly.from_int(c)
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
    if isinstance(c, int):
        c = EPoly.from_int(c)
    win = a.window
    lo = win.lo
    out: dict[tuple[int, ...], EPoly] = {}
    get_a = a.coeffs.get
    for d in win.cells():
        prev_d = tuple(x - y for x, y in zip(d, m))
        prev = out.get(prev_d) if all(x >= a0 for x, a0 in zip(prev_d, lo)) else None
        val = get_a(d)
        if prev is not None:
            carry = c * prev
            val = carry if val is None else val + carry
        if val:
            out[d] = val
    res = MSeries.__new__(MSeries)
    res.window = win
    res.coeffs = out
    return res


def multiply_sparse(a: MSeries, terms: Iterable[tuple[tuple[int, ...], EPoly]]) -> MSeries:
    """Multiply by a sparse polynomial given as (degree shift, coefficient)
    pairs, truncating to a's window."""
    win = a.window
    out: dict[tuple[int, ...], EPoly] = {}
    for delta, coeff in terms:
        if not coeff:
            continue
        for d, c in a.coeffs.items():
            nd = tuple(x + y for x, y in zip(d, delta))
            if not win.contains(nd):
                continue
            prod = coeff * c
            s = out.get(nd)
            s = prod if s is None else s + prod
            if s:
                out[nd] = s
            else:
                out.pop(nd, None)
    res = MSeries.__new__(MSeries)
    res.window = win
    res.coeffs = out
    return res


def shift_rewindow(a: MSeries, delta: tuple[int, ...], c: EPoly, window: Window) -> MSeries:
    """c * q**delta * a, re-truncated into a new window.  The caller is
    responsible for a being a full expansion of window - delta."""
    delta = tuple(delta)
    out = {}
    for d, v in a.coeffs.items():
        nd = tuple(x + y for x, y in zip(d, delta))
        if window.contains(nd):
            p = c * v
            if p:
                out[nd] = p
    return MSeries(window, out)


def series_to_json(a: MSeries) -> dict:
    """Canonical JSON form with terms sorted lexicographically by degree."""
    return {
        "window": {"lo": list(a.window.lo), "hi": list(a.window.hi)},
        "terms": [
            {"d": list(d), "coeff": epoly_to_json(c)} for d, c in a.items()
        ],
    }


def series_from_json(data: dict) -> MSeries:
    win = Window(tuple(data["window"]["lo"]), tuple(data["window"]["hi"]))
    return MSeries(
        win,
        {tuple(t["d"]): epoly_from_json(t["coeff"]) for t in data["terms"]},
    )
