"""Exact arithmetic in the ring of E-polynomials.

An E-polynomial (Hodge-Deligne polynomial) is a Laurent polynomial in two
variables u, v with arbitrary-precision integer coefficients.  Classes of
varieties are represented by their E-polynomial; the Lefschetz class L
(the class of the affine line) is the monomial u*v.  Negative exponents
are allowed, so Laurent prefactors such as L**k with k < 0 are first-class
values.

The classical specializations are fixed by three anchors:

    euler:    e(u=1, v=1),      so a genus-g curve gives 2 - 2g
    poincare: P(z) = e(-z, -z), so a genus-g curve gives 1 + 2gz + z**2
    chi_y:    e(u=y, v=1),      so the projective line gives 1 + y
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .combinat import NestingProfile


class NegativeExponent(ValueError):
    """A specialization was asked of a Laurent input with negative exponents."""


class EPoly:
    """Sparse Laurent polynomial in u, v over the integers.

    Terms are stored as a mapping (u-exponent, v-exponent) -> coefficient
    with no zero coefficients.  Instances are immutable by convention:
    no method mutates ``terms`` after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean = {}
        if terms:
            for (pu, pv), c in terms.items():
                if c:
                    clean[(pu, pv)] = c
        self.terms = clean

    @classmethod
    def monomial(cls, pu: int, pv: int, coeff: int = 1) -> EPoly:
        return cls({(pu, pv): coeff})

    @classmethod
    def from_int(cls, n: int) -> EPoly:
        return cls({(0, 0): n})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = EPoly.from_int(other)
        if not isinstance(other, EPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @staticmethod
    def _coerce(x) -> EPoly:
        if isinstance(x, EPoly):
            return x
        if isinstance(x, int):
            return EPoly.from_int(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to EPoly")

    def __add__(self, other) -> EPoly:
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = EPoly.__new__(EPoly)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> EPoly:
        res = EPoly.__new__(EPoly)
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other) -> EPoly:
        return self + (-self._coerce(other))

    def __mul__(self, other) -> EPoly:
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return ZERO
        if len(a) == 1:
            (pu, pv), c = next(iter(a.items()))
            if (pu, pv) == (0, 0):
                if c == 1:
                    res = EPoly.__new__(EPoly)
                    res.terms = dict(b)
                    return res
                out = {k: c * d for k, d in b.items()}
            else:
                out = {(k[0] + pu, k[1] + pv): c * d for k, d in b.items()}
            res = EPoly.__new__(EPoly)
            res.terms = out
            return res
        out = {}
        for (pu1, pv1), c1 in a.items():
            for (pu2, pv2), c2 in b.items():
                k = (pu1 + pu2, pv1 + pv2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        res = EPoly.__new__(EPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def min_exponent(self) -> int | None:
        """Smallest exponent appearing in any variable; None for the zero polynomial."""
        if not self.terms:
            return None
        return min(min(pu, pv) for pu, pv in self.terms)

    def top_degree(self) -> int | None:
        """max over monomials of max(u-exp, v-exp); the dimension for a
        class of a smooth projective variety.  None for zero."""
        if not self.terms:
            return None
        return max(max(pu, pv) for pu, pv in self.terms)

    def reversal(self, d: int) -> EPoly:
        """The polynomial (uv)**d * self(1/u, 1/v).  Poincare duality for the
        class of a smooth projective variety of dimension d means
        ``self.reversal(d) == self``."""
        return EPoly({(d - pu, d - pv): c for (pu, pv), c in self.terms.items()})

    def is_diagonal(self) -> bool:
        """True when every monomial is a power of uv, i.e. a polynomial in L."""
        return all(pu == pv for pu, pv in self.terms)

    def __repr__(self):
        return f"EPoly({format_epoly(self)})"


ZERO = EPoly()
ONE = EPoly.from_int(1)
LEFSCHETZ = EPoly.monomial(1, 1)


def lefschetz_power(k: int) -> EPoly:
    """The monomial (uv)**k; Laurent for negative k."""
    return EPoly.monomial(k, k)


def euler_number(a: EPoly) -> int:
    """Topological Euler characteristic: evaluate at u = v = 1."""
    return sum(a.terms.values())


def _require_nonnegative(a: EPoly):
    m = a.min_exponent()
    if m is not None and m < 0:
        raise NegativeExponent(
            "specialization requires nonnegative exponents, found exponent %d" % m
        )


def poincare_polynomial(a: EPoly) -> dict[int, int]:
    """Poincare polynomial in z: substitute u = v = -z.  Returned as a
    mapping degree -> coefficient with zeros dropped."""
    _require_nonnegative(a)
    out: dict[int, int] = {}
    for (pu, pv), c in a.terms.items():
        k = pu + pv
        s = out.get(k, 0) + c * (-1) ** k
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def chi_y_polynomial(a: EPoly) -> dict[int, int]:
    """chi_-y genus in y: substitute u = y, v = 1."""
    _require_nonnegative(a)
    out: dict[int, int] = {}
    for (pu, _pv), c in a.terms.items():
        s = out.get(pu, 0) + c
        if s:
            out[pu] = s
        else:
            out.pop(pu, None)
    return out


def flag_motive(profile: NestingProfile) -> EPoly:
    """Class of the partial flag variety attached to a nesting profile:
    the Gaussian multinomial over the corank block sizes b_0..b_l, the
    product over j of the Gaussian binomials [b_0 + ... + b_j, b_j].  Each
    binomial is built row by row with the L-Pascal rule
    [m, k] = [m - 1, k - 1] + L**k [m - 1, k]."""
    cls, m = ONE, 0
    for b in profile.block_sizes():
        m += b
        row = [ONE] + [ZERO] * b
        for _ in range(m):
            row = [ONE] + [row[k - 1] + lefschetz_power(k) * row[k] for k in range(1, b + 1)]
        cls = cls * row[b]
    return cls


# -- formatting and JSON -----------------------------------------------------


def _fmt_var(name: str, e: int) -> str:
    if e == 1:
        return name
    return f"{name}^{e}"


def _format_terms(terms: list[tuple[int, str]]) -> str:
    """Join (coefficient, monomial) pairs in the given order; an empty
    monomial is the constant term."""
    parts = []
    for c, mono in terms:
        if not mono:
            body = str(abs(c))
        elif c == 1 or c == -1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    first = parts[0]
    parts[0] = first[2:] if first[0] == "+" else "-" + first[2:]
    return " ".join(parts)


def format_epoly(a: EPoly) -> str:
    """Human-readable rendering; powers of uv are printed as powers of L."""
    diagonal = a.is_diagonal()
    terms = []
    for (pu, pv), c in sorted(a.terms.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0])):
        if diagonal:
            mono = _fmt_var("L", pu) if pu else ""
        elif pu and pv:
            mono = f"{_fmt_var('u', pu)}*{_fmt_var('v', pv)}"
        else:
            mono = _fmt_var("u", pu) if pu else _fmt_var("v", pv) if pv else ""
        terms.append((c, mono))
    return _format_terms(terms)


def format_upoly(p: dict[int, int], var: str) -> str:
    """Rendering of a univariate specialization (degree -> coefficient)."""
    return _format_terms([(p[e], _fmt_var(var, e) if e else "") for e in sorted(p)])


def epoly_to_json(a: EPoly) -> list[dict]:
    """Canonical JSON form: terms sorted lexicographically by (pu, pv),
    coefficients as decimal strings."""
    return [
        {"pu": pu, "pv": pv, "c": str(a.terms[(pu, pv)])}
        for (pu, pv) in sorted(a.terms)
    ]


def epoly_from_json(data: list[dict]) -> EPoly:
    return EPoly({(int(t["pu"]), int(t["pv"])): int(t["c"]) for t in data})
