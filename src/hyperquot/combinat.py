"""Nesting profiles, block permutations and their combinatorial weights.

A nesting profile records the rank r of the ambient bundle and the
nondecreasing quotient ranks s_1 <= ... <= s_l.  The coranks r_i = r - s_i
(with r_0 = r, r_{l+1} = 0) cut the positions 1..r into consecutive
blocks; block j is the interval (r_{j+1}, r_j].  A block permutation is a
permutation of {1..r} increasing on every block; these index the connected
components of the torus-fixed locus, and all exponents entering the closed
formulas are read off from them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .qseries import Window

_setattr = object.__setattr__


class InvalidProfile(ValueError):
    """Quotient ranks not nondecreasing or out of the range 0..r."""


def _int_tuple(what: str, xs) -> tuple[int, ...]:
    """xs as a tuple; TypeError if an entry is not an int or is a bool."""
    xs = tuple(xs)
    if not all(type(x) is int for x in xs):
        raise TypeError(f"{what}: expected ints, got {xs!r}")
    return xs


def _frozen(verb: str, name: str):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


class _Value:
    """An immutable value with the behaviour of a frozen dataclass.

    A subclass names its fields in ``_fields`` and stores them, once
    validated, with ``_freeze``; the field tuple is kept as ``_key``.
    Equality holds between instances of one class with equal keys, the
    hash is the key's, and the repr is ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises ``FrozenInstanceError``, and
    a pickle rebuilds the value from its fields through the constructor.
    """

    __slots__ = ("_key",)
    _fields: tuple[str, ...] = ()

    def _freeze(self, *values):
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)
        _setattr(self, "_key", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name, value):
        _frozen("assign to", name)

    def __delattr__(self, name):
        _frozen("delete", name)


class NestingProfile(_Value):
    _fields = ("rank", "s")
    __slots__ = _fields + ("coranks",)

    def __init__(self, rank: int, s: tuple[int, ...]):
        _int_tuple("rank", (rank,))
        s = _int_tuple("quotient ranks", s)
        if rank < 1:
            raise InvalidProfile(f"rank must be positive, got {rank}")
        if not s:
            raise InvalidProfile("need at least one quotient rank")
        prev = 0
        for x in s:
            if x < prev:
                raise InvalidProfile(f"quotient ranks must be nondecreasing: {s}")
            prev = x
        if s[0] < 0 or s[-1] > rank:
            raise InvalidProfile(f"quotient ranks must lie in 0..{rank}: {s}")
        self._freeze(rank, s)
        # coranks[i] = r_i for i = 0..l+1
        _setattr(self, "coranks", (rank,) + tuple(rank - x for x in s) + (0,))

    @property
    def length(self) -> int:
        return len(self.s)

    def corank(self, i: int) -> int:
        """r_i for i in 0..l+1."""
        return self.coranks[i]

    def block_range(self, j: int) -> range:
        """Positions of block j: the interval (r_{j+1}, r_j], for j in 0..l."""
        return range(self.coranks[j + 1] + 1, self.coranks[j] + 1)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(self.coranks[j] - self.coranks[j + 1] for j in range(self.length + 1))

    def block_index(self, alpha: int) -> int:
        """The j with alpha in block j: the count of r_1..r_{l+1} that are
        >= alpha.  Positions in block j survive into the kernels K_1..K_j
        and none later."""
        if not 1 <= alpha <= self.rank:
            raise InvalidProfile(f"position {alpha} outside 1..{self.rank}")
        return sum(r >= alpha for r in self.coranks[1:])


class BundleSpec(_Value):
    __slots__ = _fields = ("degrees",)

    def __init__(self, degrees: tuple[int, ...]):
        degrees = _int_tuple("degrees", degrees)
        if not degrees:
            raise InvalidProfile("bundle needs at least one line-bundle summand")
        self._freeze(degrees)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    @property
    def max_gap(self) -> int:
        return max(self.degrees) - min(self.degrees)


class CurveSpec(_Value):
    __slots__ = _fields = ("genus",)

    def __init__(self, genus: int):
        _int_tuple("genus", (genus,))
        if genus < 0:
            raise InvalidProfile(f"genus must be >= 0, got {genus}")
        self._freeze(genus)


class BlockPermutation(_Value):
    """A permutation of {1..r} increasing on every corank block.

    ``sigma(alpha)`` is available through call syntax with the 1-based
    position alpha.  The weight methods below feed the closed formulas:

    * ``stratum_weight(i, alpha)`` -- tangent directions gained per point of
      the i-th subscheme sitting in slot alpha (the coefficient of n_{i,alpha}
      in the attracting-cell dimension);
    * ``stratum_offset(i, genus, degrees)`` -- the constant part of the
      attracting-cell dimension contributed by the line-bundle summands;
    * ``dropped_above(i, alpha)`` -- how many of the summands dropped between
      the kernels K_{i-1} and K_i sit above slot alpha in the sigma-order;
    * ``zeta_exponent(i, j, alpha)`` -- the Lefschetz exponent of the zeta
      argument attached to (i, j, alpha); it equals the telescoped sum of
      stratum weights sum_{k=i..j} stratum_weight(k, alpha).
    """

    __slots__ = _fields = ("profile", "values")

    def __init__(self, profile: NestingProfile, values: tuple[int, ...]):
        values = _int_tuple("block permutation", values)
        if sorted(values) != list(range(1, profile.rank + 1)):
            raise InvalidProfile(f"not a permutation of 1..{profile.rank}: {values}")
        for j in range(profile.length + 1):
            block = profile.block_range(j)
            for a, b in zip(block, block[1:]):
                if values[a - 1] > values[b - 1]:
                    raise InvalidProfile(
                        f"{values} not increasing on block {tuple(block)}"
                    )
        self._freeze(profile, values)

    def __call__(self, alpha: int) -> int:
        return self.values[alpha - 1]

    def _above_in(self, alpha: int, positions: range) -> int:
        va = self.values[alpha - 1]
        return sum(1 for b in positions if self.values[b - 1] > va)

    def _below_in(self, alpha: int, positions: range) -> int:
        va = self.values[alpha - 1]
        return sum(1 for b in positions if self.values[b - 1] < va)

    def dropped_above(self, i: int, alpha: int) -> int:
        """Count of positions beta in (r_i, r_{i-1}] with sigma(beta) > sigma(alpha);
        defined for i = 1..l+1."""
        p = self.profile
        return self._above_in(alpha, range(p.corank(i) + 1, p.corank(i - 1) + 1))

    def stratum_weight(self, i: int, alpha: int) -> int:
        p = self.profile
        return self._below_in(
            alpha, range(p.corank(i + 1) + 1, p.corank(i) + 1)
        ) + self.dropped_above(i, alpha)

    def stratum_offset(self, i: int, genus: int, degrees: tuple[int, ...]) -> int:
        p = self.profile
        w = 0
        for alpha in range(p.corank(i + 1) + 1, p.corank(i) + 1):
            va = self.values[alpha - 1]
            for beta in range(p.corank(i) + 1, p.rank + 1):
                vb = self.values[beta - 1]
                if vb > va:
                    w += degrees[vb - 1] - degrees[va - 1] + 1 - genus
        return w

    def zeta_exponent(self, i: int, j: int, alpha: int) -> int:
        p = self.profile
        return (
            self.dropped_above(i, alpha)
            + p.corank(i)
            - p.corank(j)
            + alpha
            - p.corank(j + 1)
            - 1
        )

    def degree_prefactor(self, j: int, degrees: tuple[int, ...]) -> int:
        """Sum of the degrees of the summands absorbed into the j-th quotient:
        sum over positions alpha > r_j of deg L_{sigma(alpha)}."""
        p = self.profile
        return sum(degrees[self.values[a - 1] - 1] for a in range(p.corank(j) + 1, p.rank + 1))


@lru_cache(maxsize=None)
def block_permutations(profile: NestingProfile) -> tuple[BlockPermutation, ...]:
    """All block permutations, in lexicographic order of their value sequences.

    Enumeration picks the value set of each block in position order, so the
    cost is the Gaussian multinomial count r!/prod(block sizes!), never r!.
    """
    sizes = [len(profile.block_range(j)) for j in range(profile.length, -1, -1)]
    out: list[BlockPermutation] = []

    def place(bi: int, remaining: tuple[int, ...], acc: tuple[int, ...]):
        if bi == len(sizes):
            out.append(BlockPermutation(profile, acc))
            return
        for chosen in itertools.combinations(remaining, sizes[bi]):
            left = tuple(x for x in remaining if x not in chosen)
            place(bi + 1, left, acc + chosen)

    place(0, tuple(range(1, profile.rank + 1)), ())
    return tuple(out)


def _direction(l: int, i: int, j: int) -> tuple[int, ...]:
    """Exponent vector of the monomial q_i ... q_j (1-based, inclusive)."""
    return tuple(1 if i <= k <= j else 0 for k in range(1, l + 1))


def _slots(profile: NestingProfile):
    """The slots (i, j, alpha, m): 1 <= i <= j <= l and alpha in block j, in
    the loop order (j, alpha, i), with m the direction of q_i ... q_j."""
    l = profile.length
    for j in range(1, l + 1):
        for alpha in profile.block_range(j):
            for i in range(1, j + 1):
                yield i, j, alpha, _direction(l, i, j)


def stratum_weight_identity(profile: NestingProfile) -> bool:
    """Check, for every block permutation, that the telescoped stratum
    weights sum_{k=i..j} stratum_weight(k, alpha) agree with the closed-form
    zeta exponents at every slot (i, j, alpha)."""
    return all(
        sum(sigma.stratum_weight(k, alpha) for k in range(i, j + 1))
        == sigma.zeta_exponent(i, j, alpha)
        for sigma in block_permutations(profile)
        for i, j, alpha, _ in _slots(profile)
    )


def check_shape(
    profile: NestingProfile, bundle: BundleSpec | None = None, window: Window | None = None
):
    """Raise ValueError unless the bundle rank is the profile rank and the
    window has one variable per quotient."""
    if bundle is not None and bundle.rank != profile.rank:
        raise ValueError(f"bundle rank {bundle.rank} != profile rank {profile.rank}")
    if window is not None and window.arity != profile.length:
        raise ValueError(f"window arity {window.arity} != profile length {profile.length}")


def flag_dimension(profile: NestingProfile) -> int:
    """Dimension of the partial flag variety: sum s_i (s_{i+1} - s_i) with
    s_{l+1} = r."""
    s = profile.s + (profile.rank,)
    return sum(s[i] * (s[i + 1] - s[i]) for i in range(profile.length))


def virtual_dimension(
    profile: NestingProfile, d: tuple[int, ...], genus: int, total_degree: int
) -> int:
    """Rank of the natural obstruction theory at multidegree d:
    (1-g) dim Flag + sum d_i (s_{i+1} - s_{i-1}) - deg(E) s_l."""
    l = profile.length
    if len(d) != l:
        raise InvalidProfile(f"degree vector {d} has length != {l}")
    s = (0,) + profile.s + (profile.rank,)
    move = sum(d[i - 1] * (s[i + 1] - s[i - 1]) for i in range(1, l + 1))
    return (1 - genus) * flag_dimension(profile) + move - total_degree * s[l]
