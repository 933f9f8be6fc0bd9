"""Brute-force partition function by direct fixed-component enumeration.

This is the anti-drift check for the closed formulas.  It walks every
torus-fixed component inside the window -- a block permutation together
with one nondecreasing tuple of subscheme lengths per surviving slot --
and adds up Lefschetz-weighted nested-Hilbert-scheme classes.  No zeta
algebra, no telescoping identities, no factorization: the summation order
and all intermediate objects are deliberately different from the formulas
module.
"""

from __future__ import annotations

from .combinat import (
    BlockPermutation,
    BundleSpec,
    CurveSpec,
    NestingProfile,
    _Value,
    block_permutations,
    check_shape,
)
from .curve_motives import nested_hilb_class
from .epoly import ZERO, EPoly, lefschetz_power
from .qseries import MSeries, Window


class FixedComponent(_Value):
    """One torus-fixed component: sigma plus, for each slot alpha <= r_1,
    the nondecreasing lengths (n_{1,alpha} <= ... <= n_{j,alpha}) where j is
    alpha's block index.  The multidegree d is derived:
    d_j = sum_{alpha <= r_j} n_{j,alpha} + (degree prefactor of sigma at j)."""

    __slots__ = _fields = ("sigma", "lengths", "degree")
    # components are compared by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        sigma: BlockPermutation,
        lengths: tuple[tuple[int, ...], ...],
        degree: tuple[int, ...],
    ):
        self._freeze(sigma, lengths, degree)


def enumerate_fixed_components(
    sigma: BlockPermutation,
    bundle: BundleSpec,
    profile: NestingProfile,
    window: Window,
):
    """Yield every fixed component of sigma whose multidegree lies in the
    window, exactly once, in depth-first lexicographic order of the length
    tuples.  Termination: each n_{j,alpha} is bounded by the remaining
    budget hi_j - prefactor_j - (lengths already placed at index j)."""
    l = profile.length
    r1 = profile.corank(1)
    pre = tuple(sigma.degree_prefactor(j, bundle.degrees) for j in range(1, l + 1))
    budget = [window.hi[j] - pre[j] for j in range(l)]
    if any(b < 0 for b in budget):
        return
    lengths: list[tuple[int, ...]] = []

    def fill_slot(alpha: int):
        if alpha > r1:
            d = tuple(window.hi[j] - budget[j] for j in range(l))
            if all(x >= a for x, a in zip(d, window.lo)):
                yield FixedComponent(sigma, tuple(lengths), d)
            return
        depth = profile.block_index(alpha)
        tup: list[int] = []

        def fill_entry(i: int, prev: int):
            if i > depth:
                lengths.append(tuple(tup))
                yield from fill_slot(alpha + 1)
                lengths.pop()
                return
            for n in range(prev, budget[i - 1] + 1):
                budget[i - 1] -= n
                tup.append(n)
                yield from fill_entry(i + 1, n)
                tup.pop()
                budget[i - 1] += n

        yield from fill_entry(1, 0)

    yield from fill_slot(1)


def bb_stratum_dimension(comp: FixedComponent, genus: int, bundle: BundleSpec) -> int:
    """Fiber dimension of the attracting cell over the component:
    sum n_{i,alpha} * stratum_weight(i, alpha) plus the stratum offsets."""
    sigma = comp.sigma
    profile = sigma.profile
    dim = 0
    for alpha, tup in enumerate(comp.lengths, start=1):
        for i, n in enumerate(tup, start=1):
            if n:
                dim += n * sigma.stratum_weight(i, alpha)
    for i in range(1, profile.length + 1):
        dim += sigma.stratum_offset(i, genus, bundle.degrees)
    return dim


def oracle_partition_function(
    curve: CurveSpec,
    bundle: BundleSpec,
    profile: NestingProfile,
    window: Window,
) -> MSeries:
    """Sum over all fixed components of
    L**(attracting-cell fiber dimension) * (product of nested Hilbert
    classes) * q**(derived multidegree)."""
    check_shape(profile, bundle, window)
    acc: dict[tuple[int, ...], EPoly] = {}
    for sigma in block_permutations(profile):
        for comp in enumerate_fixed_components(sigma, bundle, profile, window):
            cls = lefschetz_power(bb_stratum_dimension(comp, curve.genus, bundle))
            for tup in comp.lengths:
                cls = cls * nested_hilb_class(curve.genus, tup)
            acc[comp.degree] = acc.get(comp.degree, ZERO) + cls
    return MSeries(window, acc)
