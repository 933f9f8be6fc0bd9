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

import re
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType

from .combinat import NestingProfile, _int_tuple


class NegativeExponent(ValueError):
    """A specialization was asked of a Laurent input with negative exponents."""


class EPoly:
    """Laurent polynomial in u, v over the integers, packed into one int.

    Layout (Kronecker substitution on the band coordinates (a, b - a)): the
    value sum c * u**a * v**b is

        n = sum of c * 2**(K * ((a - ou) * W + (b - a - ov)))

    with Laurent offsets ``ou`` at most the smallest ``a`` and ``ov`` at
    most the smallest ``b - a``, a stride ``W`` above every ``b - a - ov``
    and a slot width ``K`` with every ``|c| < 2**(K - 1)``: the coefficients
    are the balanced base-2**K digits of n, so they decode uniquely.  A row
    holds one u-exponent, and its slots run along the band ``b - a`` around
    the diagonal, where the classes built from L = uv and from symmetric
    powers of a curve lie, so the stride follows the width of that band and
    not the v-span.  The shear (a, b) -> (a, b - a) is additive, so sums and
    products of packed integers are those of the values.  The layout is
    coarse: K is a multiple of 32 and W a power of two of at least 32, so
    most values of one computation share it.  A sum is one aligned bigint
    add.  A product with a one-slot factor (a monomial) is one ``_axpy``
    carry, which moves the offsets and scales the integer; a sparse factor,
    with at most as many terms as the square root of its slot count, uses
    shift-and-add over its terms, and anything else is one bigint multiply.

    K and W come from bounds that travel with each value, exact for a value
    built from its terms: ``vh`` >= every ``b - a - ov`` and ``inf`` >=
    every ``|c|``.  A sum has ``inf <= inf_a + inf_b``; a product has
    ``vh <= vh_a + vh_b`` and ``inf`` at most the inf of one operand times
    the sum of the ``|c|`` of the other, whose terms the product decodes
    anyway.  A result keeps the wider of its operands' K and W, widening K
    to the next multiple of 32 above the bit length of ``inf`` or W to the
    next power of two above ``vh`` only when a bound needs it; an operand
    in a narrower layout is repacked.

    Digits are read by one row reader, ``_rows``: it yields each row's
    u-exponent, its first v-exponent and the signed digits of its first
    ``vh + 1`` slots, so ``vh`` bounds which digits are read and an
    under-estimate would lose terms.  The JSON renderers take the rows
    directly; ``terms``, the read-only mapping (u-exponent, v-exponent) ->
    coefficient with no zero coefficients, is built over them at most once
    per value.  Two values are equal when their difference is zero, so they
    compare and hash equal whatever their layouts, and a constant hashes
    like its int.  Instances are immutable.
    """

    __slots__ = ("_n", "_ou", "_ov", "_k", "_w", "_vh", "_inf", "_terms")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        for key, c in (terms or {}).items():
            pu, pv = key
            if not (type(c) is int and type(pu) is int and type(pv) is int):
                raise TypeError(f"EPoly needs int exponents and coefficients, got {key!r}: {c!r}")
            if c:
                clean[(pu, pv)] = c
        ou = min((pu for pu, _ in clean), default=0)
        ov = min((pv - pu for pu, pv in clean), default=0)
        vh = max((pv - pu - ov for pu, pv in clean), default=0)
        inf = max(map(abs, clean.values()), default=0)
        k, w = _width(inf), _stride(vh)
        self._n, self._ou, self._ov, self._k, self._w = _encode(clean, ou, ov, k, w), ou, ov, k, w
        self._vh, self._inf = vh, inf
        self._terms = MappingProxyType(clean)

    @classmethod
    def monomial(cls, pu: int, pv: int, coeff: int = 1) -> EPoly:
        if not (type(coeff) is int and type(pu) is int and type(pv) is int):
            raise TypeError(f"EPoly.monomial needs ints, got {(pu, pv, coeff)!r}")
        if not coeff:
            return ZERO
        m = abs(coeff)
        return _new(coeff, pu, pv - pu, _width(m), _stride(0), 0, m)

    @classmethod
    def from_int(cls, n: int) -> EPoly:
        return cls.monomial(0, 0, n)

    @property
    def terms(self) -> Mapping[tuple[int, int], int]:
        t = self._terms
        if t is None:
            t = self._terms = MappingProxyType(
                {(pu, pv): c for pu, pv0, row in _rows(self) for pv, c in enumerate(row, pv0) if c}
            )
        return t

    def __reduce__(self):
        return _new, (self._n, self._ou, self._ov, self._k, self._w, self._vh, self._inf)

    def __bool__(self) -> bool:
        return self._n != 0

    def __eq__(self, other) -> bool:
        if type(other) is not EPoly and type(other) is not int:
            return NotImplemented
        return not self - other

    def __hash__(self):
        t = self.terms
        if not t:
            return hash(0)
        if len(t) == 1 and (0, 0) in t:
            return hash(t[(0, 0)])
        return hash(frozenset(t.items()))

    def __add__(self, other) -> EPoly:
        if type(other) is not EPoly:
            other = _coerce(other)
        out = [self]
        _axpy(out, [other], ONE, ((0, 0),))
        return out[0]

    __radd__ = __add__

    def __neg__(self) -> EPoly:
        return _new(-self._n, self._ou, self._ov, self._k, self._w, self._vh, self._inf)

    def __sub__(self, other) -> EPoly:
        return self + (-_coerce(other))

    def __mul__(self, other) -> EPoly:
        if type(other) is not EPoly:
            other = _coerce(other)
        a, b = self, other
        an, bn = a._n, b._n
        if not an or not bn:
            return ZERO
        abits, bbits = an.bit_length(), bn.bit_length()
        if abits < a._k or bbits < b._k:  # a one-slot factor: one _axpy carry
            c, x = (a, b) if abits < a._k else (b, a)
            out = [ZERO]
            _axpy(out, [x], c, ((0, 0),))
            return out[0]
        slots, bslots = abits // a._k, bbits // b._k
        if slots > bslots:
            a, b, slots = b, a, bslots
        t = a.terms
        inf = b._inf * sum(map(abs, t.values()))
        if len(t) ** 2 <= slots:
            return _shift_add(b, a, t, inf)
        vh = a._vh + b._vh
        k, w = _layout(a._k if a._k >= b._k else b._k, a._w if a._w >= b._w else b._w, inf, vh)
        n = _repack(a, k, w) * _repack(b, k, w)
        return _new(n, a._ou + b._ou, a._ov + b._ov, k, w, vh, inf)

    __rmul__ = __mul__

    def min_exponent(self) -> int | None:
        """Smallest exponent appearing in any variable; None for the zero polynomial."""
        if not self._n:
            return None
        return min(min(pu, pv) for pu, pv in self.terms)

    def top_degree(self) -> int | None:
        """max over monomials of max(u-exp, v-exp); the dimension for a
        class of a smooth projective variety.  None for zero."""
        if not self._n:
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


# -- the packed layout -------------------------------------------------------

# Slot widths in bytes that memoryview.cast reads a row of signed digits in one call.
_CAST = {4: "i", 8: "q"} if sys.byteorder == "little" else {}

_alloc = object.__new__


def _new(n, ou, ov, k, w, vh, inf) -> EPoly:
    x = _alloc(EPoly)
    x._n, x._ou, x._ov, x._k, x._w, x._vh, x._inf = n, ou, ov, k, w, vh, inf
    x._terms = None
    return x


# The layout is coarse so that the values of one computation share it, since
# a sum or product across two layouts first repacks an operand.  In a pass of
# the five motivic_large benchmark cases under a finer rule (8-bit slot steps,
# strides from 1) every value fit 32-bit slots and 94% had a stride <= 16.


def _width(inf: int) -> int:
    """Smallest multiple of 32 bits whose balanced digits hold |c| <= inf."""
    return (inf.bit_length() + 32) & ~31


def _stride(vh: int) -> int:
    """Smallest power of two above vh, and at least 32."""
    return max(32, 1 << vh.bit_length())


def _layout(k: int, w: int, inf: int, vh: int) -> tuple[int, int]:
    """Slot width k and stride w, each widened only if inf or vh needs it."""
    if inf >> (k - 1):
        k = _width(inf)
    if vh >= w:
        w = _stride(vh)
    return k, w


def _coerce(x) -> EPoly:
    if isinstance(x, EPoly):
        return x
    if isinstance(x, int):
        return EPoly.from_int(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to EPoly")


def _encode(terms, ou: int, ov: int, k: int, w: int) -> int:
    """The integer of terms in the layout (ou, ov, k, w), written as biased
    digits into one byte buffer, so the cost stays linear in its length."""
    if not terms:
        return 0
    kb, half = k >> 3, 1 << (k - 1)
    slots = {(pu - ou) * w + pv - pu - ov: c for (pu, pv), c in terms.items()}
    pattern = half.to_bytes(kb, "little") * (max(slots) + 1)
    buf = bytearray(pattern)
    for i, c in slots.items():
        buf[i * kb : (i + 1) * kb] = (c + half).to_bytes(kb, "little")
    return int.from_bytes(buf, "little") - int.from_bytes(pattern, "little")


def _digits(n: int, k: int, slots: int) -> bytes:
    """The slots of n as biased digits c + 2**(k - 1), k // 8 little-endian
    bytes each."""
    pattern = (1 << (k - 1)).to_bytes(k >> 3, "little") * slots
    return (n + int.from_bytes(pattern, "little")).to_bytes(len(pattern), "little")


def _widen(raw, kb1: int, kb: int) -> bytearray:
    """Slots of kb1 bytes, zero-extended to kb bytes each."""
    out = bytearray(len(raw) // kb1 * kb)
    for j in range(kb1):
        out[j::kb] = raw[j::kb1]
    return out


def _rows(x: EPoly) -> Iterator[tuple[int, int, Sequence[int]]]:
    """(pu, first pv, signed digits) for every row of x in ascending pu: the
    digit j of a row is the coefficient of u**pu v**(first pv + j), so the
    digits run in ascending (pu, pv) order.  Of each row of W slots only the
    first vh + 1 are read."""
    n, k = x._n, x._k
    if not n:
        return
    kb = k >> 3
    fmt = _CAST.get(kb)
    # a nonzero top slot t makes |n| > 2**(k*t - 1), so t <= bit_length // k
    size = kb * (n.bit_length() // k + 1)
    bias = int.from_bytes((1 << (k - 1)).to_bytes(kb, "little") * (size // kb), "little")
    # each biased slot c + 2**(k - 1) with its top bit flipped is c in two's complement
    raw = memoryview(((n + bias) ^ bias).to_bytes(size, "little"))
    step, span, ov = x._w * kb, (x._vh + 1) * kb, x._ov
    for pu, i in enumerate(range(0, size, step), x._ou):
        row = raw[i : i + span]
        if fmt:
            yield pu, pu + ov, row.cast(fmt)
        else:
            digits = [row[j : j + kb] for j in range(0, len(row), kb)]
            yield pu, pu + ov, [int.from_bytes(d, "little", signed=True) for d in digits]


def _box(x: EPoly) -> tuple[int, int, int, int]:
    """(lowest pu, highest pu, lowest pv, highest pv) of a box that holds
    every digit ``_rows`` yields for x."""
    top = x._ou + x._n.bit_length() // x._k // x._w
    return x._ou, top, x._ou + x._ov, top + x._ov + x._vh


def _repack(x: EPoly, k: int, w: int) -> int:
    """x's integer in the layout with slot width k >= x._k and stride
    w >= x._w, at the same offsets."""
    n, k1, w1 = x._n, x._k, x._w
    if k1 == k and w1 == w:
        return n
    bits = n.bit_length()
    kb1, kb = k1 >> 3, k >> 3
    rows = bits // (k1 * w1) + 1
    src = _digits(n, k1, rows * w1)
    if kb != kb1:
        src = _widen(src, kb1, kb)
    fill = (1 << (k1 - 1)).to_bytes(kb, "little")
    if w != w1:  # rows of w1 slots, w - w1 empty slots between them
        row = w1 * kb
        src = (fill * (w - w1)).join([src[i : i + row] for i in range(0, len(src), row)])
    return int.from_bytes(src, "little") - int.from_bytes(fill * (len(src) // kb), "little")


def _shift_add(x: EPoly, s: EPoly, terms, inf: int) -> EPoly:
    """x times s, whose terms are given, with inf bounding every |c| of the
    product: one shifted copy of x per term."""
    vh = x._vh + s._vh
    k, w = _layout(x._k, x._w, inf, vh)
    base = _repack(x, k, w)
    su, sv = s._ou, s._ov
    n = 0
    for (pu, pv), c in terms.items():
        shifted = base << k * ((pu - su) * w + pv - pu - sv)
        if c == 1:
            n += shifted
        elif c == -1:
            n -= shifted
        else:
            n += shifted * c
    return _new(n, x._ou + su, x._ov + sv, k, w, vh, inf)


def _axpy(out: list[EPoly], src: list[EPoly], c: EPoly, pairs: Iterable[tuple[int, int]]):
    """out[j] += c * src[i] over the (source, target) index pairs, in their
    order: the one multiply-and-accumulate loop of every series kernel, of
    ``EPoly.__add__`` (c = 1) and of a product with a one-slot factor (one
    pair into ``[ZERO]``).

    A one-slot c = c0 * u**a v**b carries src[i]'s integer times c0 at
    offsets moved by (a, b - a), with inf times |c0|, repacked wider first only
    if that bound outgrows the slot; any other c carries ``c * src[i]``.
    The sum keeps the wider of the two layouts, widened further only if the
    summed bounds need it, and an operand in another layout is repacked, so
    a carry whose layout matches out[j]'s is added in place: one aligned
    bigint add and one new value per cell."""
    c0, cu, cv = c._n, c._ou, c._ov
    if not c0:
        return
    if c0.bit_length() >= c._k:  # several slots: each carry is one product
        for i, j in pairs:
            out[j] = out[j] + c * src[i]
        return
    m = abs(c0)
    scale = m != 1
    for i, j in pairs:
        x = src[i]
        bn = x._n
        if not bn:
            continue
        bk, bw, binf = x._k, x._w, x._inf
        if scale:
            binf *= m
            if binf >> (bk - 1):
                bk = _width(binf)
                bn = _repack(x, bk, bw)
        bn, bu, bv = bn * c0, x._ou + cu, x._ov + cv
        y = out[j]
        an = y._n
        if not an:
            out[j] = _new(bn, bu, bv, bk, bw, x._vh, binf)
            continue
        ak, aw, au, av, inf = y._k, y._w, y._ou, y._ov, y._inf + binf
        ou = au if au <= bu else bu
        ov = av if av <= bv else bv
        ah, bh = av + y._vh, bv + x._vh
        vh = (ah if ah >= bh else bh) - ov
        k = ak if ak >= bk else bk
        w = aw if aw >= bw else bw
        if vh >= w or inf >> (k - 1):
            k, w = _layout(k, w, inf, vh)
        if ak != k or aw != w:
            an = _repack(y, k, w)
        if bk != k or bw != w:
            bn = _repack(x, k, w) * c0
        s = (an << k * ((au - ou) * w + av - ov)) + (bn << k * ((bu - ou) * w + bv - ov))
        out[j] = _new(s, ou, ov, k, w, vh, inf) if s else ZERO


ZERO = EPoly()
ONE = EPoly.from_int(1)
LEFSCHETZ = EPoly.monomial(1, 1)


def lefschetz_power(k: int) -> EPoly:
    """The monomial (uv)**k; Laurent for negative k."""
    return EPoly.monomial(k, k)


def euler_number(a: EPoly) -> int:
    """Topological Euler characteristic: evaluate at u = v = 1."""
    return sum(a.terms.values())


def _collapse(a: EPoly, degree) -> dict[int, int]:
    """The coefficients of a summed by target degree ``degree(pu, pv)``,
    zeros dropped: the collapse of (u, v) to one variable that both
    one-variable specializations share.  A Laurent input raises
    ``NegativeExponent``."""
    m = a.min_exponent()
    if m is not None and m < 0:
        raise NegativeExponent(
            "specialization requires nonnegative exponents, found exponent %d" % m
        )
    out: dict[int, int] = {}
    for (pu, pv), c in a.terms.items():
        e = degree(pu, pv)
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poincare_polynomial(a: EPoly) -> dict[int, int]:
    """Poincare polynomial in z: substitute u = v = -z.  Returned as a
    mapping degree -> coefficient with zeros dropped."""
    return {k: (-1) ** k * c for k, c in _collapse(a, lambda pu, pv: pu + pv).items()}


def chi_y_polynomial(a: EPoly) -> dict[int, int]:
    """chi_-y genus in y: substitute u = y, v = 1."""
    return _collapse(a, lambda pu, _pv: pu)


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
    """Canonical JSON form: terms sorted lexicographically by (pu, pv), the
    order ``_rows`` reads them in, coefficients as decimal strings."""
    return [
        {"pu": pu, "pv": pv, "c": str(c)}
        for pu, pv0, row in _rows(a)
        for pv, c in enumerate(row, pv0)
        if c
    ]


def epoly_from_json(data: list[dict]) -> EPoly:
    """Inverse of ``epoly_to_json``: TypeError for a non-int exponent (a
    bool included), ValueError for a repeated exponent pair, a coefficient
    that is not a decimal string or a missing field."""
    try:
        terms = {_int_tuple("exponents", (t["pu"], t["pv"])): _decimal(t["c"]) for t in data}
    except KeyError as e:
        raise ValueError(f"missing field {e}") from None
    if len(terms) != len(data):
        raise ValueError("repeated exponent pair")
    return EPoly(terms)


def _decimal(c) -> int:
    if not (isinstance(c, str) and re.fullmatch(r"-?[0-9]+", c)):
        raise ValueError(f"coefficient must be a decimal string, got {c!r}")
    return int(c)
