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
    products of packed integers are those of the values.  K is a multiple
    of 32.  A value built from its terms gets the coarse stride, a power of
    two of at least 32; the values of a series walk get the walk's own
    stride, one above a bound on the band of every value it makes and at
    most 32 (``formulas._walk_stride``), which need not be a power of two.  Either
    way most values of one computation share a layout.

    The packed fields as a bare tuple (n, ou, ov, k, w, vh, inf) are the
    value's *cell*, and 0 is the cell of zero (``_cell``, ``_wrap``).  A
    sum, a difference and a product are each one ``_axpy`` carry on cells,
    the only place two packed integers meet: a sum carries the other value
    with c = 1, one aligned bigint add, a difference with c = -1, with no
    negated copy, and a product carries the factor with more slots, times
    the one with fewer, into ``[0]``.  With a one-slot factor (a monomial)
    that carry moves the offsets, scales the integer only by a coefficient
    other than +-1 and takes the sign at the add; otherwise it is one
    multiply of the two integers repacked to a common layout.

    K and W come from bounds that travel with each value, exact for a value
    built from its terms: ``vh`` >= every ``b - a - ov`` and ``inf`` >=
    every ``|c|``.  A sum has ``inf <= inf_a + inf_b``; a product has
    ``vh <= vh_a + vh_b`` and ``inf`` at most the inf of one operand times
    the sum of the ``|c|`` of the other, the one with fewer slots, whose
    digits the product reads for this bound.  A result keeps the wider of
    its operands' K and W, widening K to the next multiple of 32 above the
    bit length of ``inf`` or W to the next power of two above ``vh`` only
    when a bound needs it; an operand in a narrower layout is repacked.

    Digits are read by one reader, ``_signed_digits``: the signed digit of
    every slot, from one conversion of the integer.  ``_rows`` slices each
    row's first ``vh + 1`` of them, so ``vh`` bounds which digits are read
    and an under-estimate would lose terms; ``terms``, the read-only
    mapping (u-exponent, v-exponent) -> coefficient with no zero
    coefficients, is built over the rows at most once per value.  The CLI's
    series writer reads the flat digits, and a digit outside its row's band
    makes it raise.  Two values are equal when their difference, one
    carry, is the zero cell, so they compare and hash equal whatever their
    layouts, and a constant hashes like its int.  Instances are immutable.
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
        return _wrap((coeff, pu, pv - pu, _width(m), _stride(0), 0, m))

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
        return _wrap, (_cell(self),)  # the packed fields, never the terms

    def __bool__(self) -> bool:
        return self._n != 0

    def __eq__(self, other) -> bool:
        if type(other) is not EPoly and type(other) is not int:
            return NotImplemented
        return not _carry(self, other, _MINUS)

    def __hash__(self):
        t = self.terms
        if not t:
            return hash(0)
        if len(t) == 1 and (0, 0) in t:
            return hash(t[(0, 0)])
        return hash(frozenset(t.items()))

    def __add__(self, other) -> EPoly:
        return _wrap(_carry(self, other, _PLUS))

    __radd__ = __add__

    def __neg__(self) -> EPoly:
        return _wrap((-self._n, self._ou, self._ov, self._k, self._w, self._vh, self._inf))

    def __sub__(self, other) -> EPoly:
        return _wrap(_carry(self, other, _MINUS))

    def __rsub__(self, other) -> EPoly:
        return _coerce(other) - self

    def __mul__(self, other) -> EPoly:
        if type(other) is not EPoly:
            other = _coerce(other)
        a, b = self, other
        if a._n.bit_length() // a._k > b._n.bit_length() // b._k:
            a, b = b, a  # a has the fewer slots, so its digits are the ones read
        return _wrap(_carry(ZERO, b, _cell(a)))

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


def _cell(x: EPoly):
    """The cell of x, the form ``_axpy`` reads and writes: the tuple
    (n, ou, ov, k, w, vh, inf) of its packed fields, or 0 for zero."""
    n = x._n
    return (n, x._ou, x._ov, x._k, x._w, x._vh, x._inf) if n else 0


def _wrap(cell) -> EPoly:
    """The value of a cell, the inverse of ``_cell``: the one way a value
    is made from packed fields, its unpickling included."""
    if not cell:
        return ZERO
    x = _alloc(EPoly)
    x._n, x._ou, x._ov, x._k, x._w, x._vh, x._inf = cell
    x._terms = None
    return x


def _carry(a: EPoly, b, c):
    """The cell of a + c * b, one ``_axpy`` carry; b an EPoly or an int."""
    out = [_cell(a)]
    _axpy(out, [_cell(b if type(b) is EPoly else _coerce(b))], c, ((0, 0),))
    return out[0]


# The layout is coarse so that the values of one computation share it, since
# a sum or product across two layouts first repacks an operand.  In a pass of
# the five motivic_large benchmark cases under a finer rule (8-bit slot steps,
# strides from 1) every value fit 32-bit slots and 94% had a stride <= 16.
# A series walk knows a bound on the band of every value it makes, so it
# seeds its values at that stride (``_at_stride``) and they keep it.


def _width(inf: int) -> int:
    """Smallest multiple of 32 bits whose balanced digits hold |c| <= inf."""
    return (inf.bit_length() + 32) & ~31


def _stride(vh: int) -> int:
    """The coarse stride for a band vh + 1 wide: the smallest power of two
    above vh, and at least 32.  A value built from its terms gets it; the
    values of a series walk keep the walk's own stride (``_at_stride``)
    until a band outgrows it."""
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


def _signed_digits(n: int, k: int) -> Sequence[int]:
    """The signed digits of every slot of a value's integer n with slot
    width k, in slot order, from one read of n: digit i is the coefficient
    of u**pu v**pv with pu = ou + i // W and pv - pu = ov + i % W.  A
    memoryview cast where the slot width has a C type, else a list."""
    if not n:
        return ()
    kb = k >> 3
    # a nonzero top slot t makes |n| > 2**(k*t - 1), so t <= bit_length // k
    size = kb * (n.bit_length() // k + 1)
    bias = int.from_bytes((1 << (k - 1)).to_bytes(kb, "little") * (size // kb), "little")
    # each biased slot c + 2**(k - 1) with its top bit flipped is c in two's complement
    raw = memoryview(((n + bias) ^ bias).to_bytes(size, "little"))
    fmt = _CAST.get(kb)
    if fmt:
        return raw.cast(fmt)
    return [int.from_bytes(raw[j : j + kb], "little", signed=True) for j in range(0, size, kb)]


def _rows(x: EPoly) -> Iterator[tuple[int, int, Sequence[int]]]:
    """(pu, first pv, signed digits) for every row of x in ascending pu: the
    digit j of a row is the coefficient of u**pu v**(first pv + j), so the
    digits run in ascending (pu, pv) order.  Each row is the first vh + 1 of
    its W slots, sliced from ``_signed_digits``."""
    digits = _signed_digits(x._n, x._k)
    w, span, ov = x._w, x._vh + 1, x._ov
    for pu, i in enumerate(range(0, len(digits), w), x._ou):
        yield pu, pu + ov, digits[i : i + span]


def _by_slot(x: EPoly, table: Sequence[Sequence], lo_u: int, lo_b: int, cache: dict) -> list:
    """The entries ``table[pu - lo_u][pv - pu - lo_b]`` in the slot order of
    ``_signed_digits`` of x, from x's row ou to the last row of the table:
    per row the first vh + 1 slots, then None for the W - vh - 1 slots that
    lie outside x's band.  Cached in ``cache`` per layout (ou, ov, W, vh),
    which decides it for one table."""
    key = (x._ou, x._ov, x._w, x._vh)
    out = cache.get(key)
    if out is None:
        b, span = x._ov - lo_b, x._vh + 1
        gap, out = [None] * (x._w - span), []
        for row in table[x._ou - lo_u :]:
            out += row[b : b + span]
            out += gap
        cache[key] = out
    return out


def _box(x: EPoly) -> tuple[int, int, int, int]:
    """(lowest pu, highest pu, lowest pv - pu, highest pv - pu) of a box
    that holds every digit of x inside its band."""
    return x._ou, x._ou + x._n.bit_length() // x._k // x._w, x._ov, x._ov + x._vh


def _at_stride(x: EPoly, w: int) -> EPoly:
    """x in the layout of stride w, at the same offsets, slot width and
    bounds; x itself if it has stride w or its band is too wide for it
    (vh >= w).  A one-slot integer is the same in every stride."""
    if x._w == w or x._vh >= w:
        return x
    n = x._n if x._n.bit_length() < x._k else _encode(x.terms, x._ou, x._ov, x._k, w)
    return _wrap((n, x._ou, x._ov, x._k, w, x._vh, x._inf))


def _repack(n: int, k1: int, w1: int, k: int, w: int) -> int:
    """The integer n of the layout with slot width k1 and stride w1 in the
    layout with slot width k >= k1 and stride w >= w1, at the same
    offsets: a value's integer, a scaled carry or a product alike."""
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


def _l1(cell) -> int:
    """The sum of the |coefficients| of a cell's value."""
    return sum(map(abs, _signed_digits(cell[0], cell[3])))


def _axpy(out: list, src: list, c, pairs: Iterable[tuple[int, int]]):
    """out[j] += c * src[i] over the (source, target) index pairs, in their
    order, on cells (``_cell``): the one multiply-and-accumulate loop of
    every series kernel and every ``EPoly`` sum, difference, comparison and
    product, and the only place two packed integers meet.  It reads and
    writes bare cells, so a carry builds no ``EPoly``; the kernels and
    operators unwrap their operands and wrap the cells it leaves.

    Each carry c * src[i] is first put in packed form.  A one-slot
    c = c0 * u**a v**b carries src[i]'s integer at offsets moved by
    (a, b - a), scaled by |c0| only when |c0| != 1, with inf times |c0|,
    repacked wider first only if that bound outgrows the slot; the sign of
    c0 is taken at the add, as a subtraction, so a carry of c0 = +-1 copies
    no integer to scale it.  Any other c meets src[i] as ``EPoly.__mul__``
    would multiply the two: a one-slot src[i] carries a copy of c's integer
    scaled by its coefficient, in c's layout; otherwise the carry is one
    multiply of the two integers repacked to a common layout, with ``vh``
    the sum of the two and ``inf`` the inf of the operand with more slots
    times the sum of the |coefficients| of the one with fewer, read from
    its digits (c's at most once per call).  The sum keeps the wider of the
    two layouts, widened further only if the summed bounds need it, and an
    operand in another layout is repacked.  Each operand is shifted to the
    sum's offsets only if it is not already at them, so a carry whose
    offsets and layout match out[j]'s is one aligned bigint add or
    subtract and one new cell, and a carry of c0 = 1 into an empty cell
    keeps src[i]'s integer."""
    if not c:
        return
    c0, cu, cv, ck, cw, cvh, cinf = c
    m, neg = abs(c0), c0 < 0  # m multiplies each carry's inf
    several = c0.bit_length() >= ck
    if several:  # the sign is in each carry's integer
        neg, cl1 = False, 0
        ctop = c0.bit_length() // ck  # c's top slot
    for i, j in pairs:
        x = src[i]
        if not x:
            continue
        bn, bu, bv, bk, bw, bvh, binf = x  # x[3], x[4]: the layout bn is in
        if several:
            top = bn.bit_length() // bk
            if not top:  # one slot: the carry is c scaled by it
                bw, bvh, binf = cw, cvh, cinf * abs(bn)
                bk = _width(binf) if binf >> (ck - 1) else ck
                bn *= _repack(c0, ck, cw, bk, cw)
            else:
                if top < ctop:  # src[i] has the fewer slots
                    binf = cinf * _l1(x)
                else:
                    cl1 = cl1 or _l1(c)
                    binf *= cl1
                bvh += cvh
                bk, bw = _layout(ck if ck >= bk else bk, cw if cw >= bw else bw, binf, bvh)
                bn = _repack(bn, x[3], x[4], bk, bw) * _repack(c0, ck, cw, bk, bw)
        elif m != 1:
            binf *= m
            if binf >> (bk - 1):
                bk = _width(binf)
                bn = _repack(bn, x[3], bw, bk, bw)
            bn *= m
        bu += cu
        bv += cv
        y = out[j]
        if not y:
            out[j] = (-bn if neg else bn, bu, bv, bk, bw, bvh, binf)
            continue
        an, au, av, ak, aw, avh, inf = y
        inf += binf
        ou = au if au <= bu else bu
        ov = av if av <= bv else bv
        ah, bh = av + avh, bv + bvh
        vh = (ah if ah >= bh else bh) - ov
        k = ak if ak >= bk else bk
        w = aw if aw >= bw else bw
        if vh >= w or inf >> (k - 1):
            k, w = _layout(k, w, inf, vh)
        if ak != k or aw != w:
            an = _repack(an, ak, aw, k, w)
        if bk != k or bw != w:
            bn = _repack(bn, bk, bw, k, w)
        sa, sb = k * ((au - ou) * w + av - ov), k * ((bu - ou) * w + bv - ov)
        if sa:
            an <<= sa
        if sb:
            bn <<= sb
        s = an - bn if neg else an + bn
        out[j] = (s, ou, ov, k, w, vh, inf) if s else 0


ZERO = EPoly()
ONE = EPoly.from_int(1)
LEFSCHETZ = EPoly.monomial(1, 1)
_PLUS, _MINUS = _cell(ONE), _cell(-ONE)  # the carries of a sum and a difference


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
