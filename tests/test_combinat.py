"""Profiles, block permutations, weights, dimension formulas."""

import dataclasses
import itertools
import math
import pickle

import pytest

from hyperquot.combinat import (
    BlockPermutation,
    BundleSpec,
    CurveSpec,
    InvalidProfile,
    NestingProfile,
    block_permutations,
    flag_dimension,
    stratum_weight_identity,
    virtual_dimension,
)
from hyperquot.oracle import FixedComponent
from hyperquot.qseries import Window
from hyperquot.smoothness import SmoothnessVerdict


def all_profiles(rmax, lmax, rmin=1):
    for r in range(rmin, rmax + 1):
        for l in range(1, lmax + 1):
            for s in itertools.combinations_with_replacement(range(r + 1), l):
                yield NestingProfile(r, s)


def test_profile_new():
    p = NestingProfile(2, (1,))
    assert p.coranks == (2, 1, 0)
    assert NestingProfile(3, [1, 2]).coranks == (3, 2, 1, 0)
    with pytest.raises(InvalidProfile):
        NestingProfile(2, (1, 0))
    with pytest.raises(InvalidProfile):
        NestingProfile(2, (-1,))
    with pytest.raises(InvalidProfile):
        NestingProfile(2, (1, 3))
    with pytest.raises(InvalidProfile):
        NestingProfile(0, (0,))


def test_block_structure():
    p = NestingProfile(3, (1, 2))
    assert list(p.block_range(0)) == [3]
    assert list(p.block_range(1)) == [2]
    assert list(p.block_range(2)) == [1]
    assert p.block_index(1) == 2 and p.block_index(3) == 0
    p2 = NestingProfile(4, (0, 2))
    assert p2.block_sizes() == (0, 2, 2)
    for profile in all_profiles(6, 6):
        for alpha in range(1, profile.rank + 1):
            j = profile.block_index(alpha)
            assert alpha in profile.block_range(j)


def multinomial(profile):
    n = math.factorial(profile.rank)
    for b in profile.block_sizes():
        n //= math.factorial(b)
    return n


@pytest.mark.parametrize(
    "r,s,count", [(2, (1,), 2), (3, (1, 2), 6), (4, (2,), 6)]
)
def test_enumeration_counts(r, s, count):
    assert len(block_permutations(NestingProfile(r, s))) == count


def test_enumeration_counts_match_multinomial():
    for profile in all_profiles(6, 3):
        assert len(block_permutations(profile)) == multinomial(profile)


def is_block_increasing(values, profile):
    for j in range(profile.length + 1):
        block = list(profile.block_range(j))
        for a, b in zip(block, block[1:]):
            if values[a - 1] > values[b - 1]:
                return False
    return True


def test_enumeration_complete_and_sound():
    # exhaustive cross-check against the full symmetric group
    for profile in all_profiles(5, 3, rmin=1):
        got = {sigma.values for sigma in block_permutations(profile)}
        expect = {
            values
            for values in itertools.permutations(range(1, profile.rank + 1))
            if is_block_increasing(values, profile)
        }
        assert got == expect
        assert len(got) == len(block_permutations(profile))  # no duplicates


def test_enumeration_deterministic_lex_order():
    values = [s.values for s in block_permutations(NestingProfile(4, (2,)))]
    assert values == sorted(values)


def test_block_permutation_validation():
    p = NestingProfile(4, (2,))
    with pytest.raises(InvalidProfile):
        BlockPermutation(p, (2, 1, 3, 4))
    with pytest.raises(InvalidProfile):
        BlockPermutation(p, (1, 1, 2, 3))


def test_block_permutation_is_frozen():
    sigma = block_permutations(NestingProfile(3, (1,)))[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sigma.values = (3, 2, 1)
    assert sigma.values == (1, 2, 3)


def test_equal_profiles_give_equal_sigmas():
    cached = block_permutations(NestingProfile(4, (1, 3)))
    fresh = block_permutations.__wrapped__(NestingProfile(4, (1, 3)))
    assert cached == fresh
    for a, b in zip(cached, fresh):
        assert a is not b
        assert hash(a) == hash(b)
    assert len(set(cached) | set(fresh)) == len(cached)


PROFILE = NestingProfile(3, (1, 2))
SIGMA = BlockPermutation(PROFILE, (2, 1, 3))
SIGMA_REPR = "BlockPermutation(profile=NestingProfile(rank=3, s=(1, 2)), values=(2, 1, 3))"
# each value class: a value built by keyword, the positional arguments that
# build an equal one, and the repr a frozen dataclass gives it
VALUES = [
    (PROFILE, NestingProfile, (3, [1, 2]), "NestingProfile(rank=3, s=(1, 2))"),
    (BundleSpec(degrees=(0, -1)), BundleSpec, ([0, -1],), "BundleSpec(degrees=(0, -1))"),
    (CurveSpec(genus=2), CurveSpec, (2,), "CurveSpec(genus=2)"),
    (BlockPermutation(profile=PROFILE, values=(2, 1, 3)), BlockPermutation,
     (PROFILE, [2, 1, 3]), SIGMA_REPR),
    (Window(lo=(0,), hi=(1,)), Window, ((0,), (1,)), "Window(lo=(0,), hi=(1,))"),
    (SmoothnessVerdict(status="Smooth", reason="r"), SmoothnessVerdict, ("Smooth", "r"),
     "SmoothnessVerdict(status='Smooth', reason='r')"),
    (FixedComponent(sigma=SIGMA, lengths=((1,), (0, 2)), degree=(1, 2)), FixedComponent,
     (SIGMA, ((1,), (0, 2)), (1, 2)),
     f"FixedComponent(sigma={SIGMA_REPR}, lengths=((1,), (0, 2)), degree=(1, 2))"),
]


@pytest.mark.parametrize("value, cls, args, text", VALUES, ids=[v[1].__name__ for v in VALUES])
def test_value_classes_behave_as_frozen_dataclasses(value, cls, args, text):
    assert type(value) is cls and repr(value) == text
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is cls and repr(again) == text
    for name in value._fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    other = cls(*args)
    if cls is FixedComponent:
        # compared by identity, hashed as objects
        assert other != value and value == value and again != value
        assert hash(value) == object.__hash__(value)
    else:
        assert other == value and hash(other) == hash(value) == hash(value._key)
        assert again == value and hash(again) == hash(value)
    # equal fields in another class, or in a tuple, are not an equal value
    assert value != value._key and value._key != value
    assert all(value != v for v, *_ in VALUES if v is not value)


def test_equal_fields_of_two_classes_are_not_equal():
    window, verdict = Window((0,), (1,)), SmoothnessVerdict((0,), (1,))
    assert window._key == verdict._key and window != verdict


def recount_offset(sigma, i, genus, degrees):
    p = sigma.profile
    return sum(
        degrees[sigma(beta) - 1] - degrees[sigma(alpha) - 1] + 1 - genus
        for alpha in p.block_range(i)
        for beta in range(p.corank(i) + 1, p.rank + 1)
        if sigma(beta) > sigma(alpha)
    )


def test_stratum_offset_interleaved_inputs():
    profile = NestingProfile(4, (1, 3))
    sigma = block_permutations(profile)[3]
    inputs = [(0, (0, 1, 2, 3)), (3, (0, 1, 2, 3)), (0, (5, -2, 0, 1)), (3, (5, -2, 0, 1))]
    for _ in range(2):
        for genus, degrees in inputs + inputs[::-1]:
            for i in range(1, profile.length + 1):
                got = sigma.stratum_offset(i, genus, degrees)
                assert got == recount_offset(sigma, i, genus, degrees)
    assert len({sigma.stratum_offset(1, g, d) for g, d in inputs}) == len(inputs)


def test_specs_and_windows_reject_non_integers():
    bad = [
        lambda: Window((0,), (2.7,)),
        lambda: Window((0.0,), (2,)),
        lambda: NestingProfile(2, (1.9,)),
        lambda: NestingProfile(2.5, (1,)),
        lambda: BundleSpec((0, "1")),
        lambda: CurveSpec(1.5),
        lambda: BlockPermutation(NestingProfile(2, (1,)), (1.7, 2)),
    ]
    for build in bad:
        with pytest.raises(TypeError):
            build()
    assert Window([0], [2]).hi == (2,)
    assert NestingProfile(2, [1]).s == (1,)
    assert BundleSpec([0, 1]).degrees == (0, 1)


def test_weight_examples():
    p = NestingProfile(2, (1,))
    ident, trans = block_permutations(p)
    assert ident.values == (1, 2) and trans.values == (2, 1)
    # identity: slot 1 sees slot 2 above it
    assert ident.dropped_above(1, 1) == 1
    assert ident.stratum_weight(1, 1) == 1
    assert ident.stratum_offset(1, 0, (0, 0)) == 1
    # transposition: nothing above slot 1
    assert trans.dropped_above(1, 1) == 0
    assert trans.stratum_weight(1, 1) == 0
    assert trans.stratum_offset(1, 0, (0, 0)) == 0
    # degree and genus enter the offset linearly
    assert ident.stratum_offset(1, 2, (0, 3)) == 3 - 0 + 1 - 2


def test_weight_telescoping_identity():
    # every profile with r <= 6 and l <= 3
    for profile in all_profiles(6, 3):
        assert stratum_weight_identity(profile)


def test_weights_nonnegative():
    for profile in all_profiles(5, 3):
        l = profile.length
        for sigma in block_permutations(profile):
            for i in range(1, l + 1):
                for alpha in range(1, profile.rank + 1):
                    assert sigma.dropped_above(i, alpha) >= 0
                    assert sigma.stratum_weight(i, alpha) >= 0
            for j in range(1, l + 1):
                for alpha in profile.block_range(j):
                    for i in range(1, j + 1):
                        assert sigma.zeta_exponent(i, j, alpha) >= 0


def test_dropped_above_final_step():
    # the i = l+1 range (0, r_l] is legal input even though no formula consumes it
    p = NestingProfile(3, (1, 2))
    for sigma in block_permutations(p):
        for alpha in range(1, 4):
            expect = sum(1 for b in range(1, p.corank(2) + 1) if sigma(b) > sigma(alpha))
            assert sigma.dropped_above(3, alpha) == expect


def test_order_indicator_antisymmetry():
    # sigma places exactly one of each pair above the other
    p = NestingProfile(4, (1, 3))
    for sigma in block_permutations(p):
        for a in range(1, 5):
            for b in range(1, 5):
                if a != b:
                    above = sigma(b) > sigma(a)
                    below = sigma(a) > sigma(b)
                    assert above != below


def test_flag_dimension():
    assert flag_dimension(NestingProfile(2, (1,))) == 1
    assert flag_dimension(NestingProfile(3, (1, 2))) == 3
    assert flag_dimension(NestingProfile(5, (0, 0, 0))) == 0
    assert flag_dimension(NestingProfile(4, (2,))) == 4  # G(2,4)


def rank_pairing(profile, d, genus, total_degree):
    """Independent oracle: the alternating sum of Riemann-Roch ranks
    rk RHom(K_j, T_i) = r_j s_i (1-g) + r_j d_i + s_i (d_j - deg E)."""
    l = profile.length
    s = profile.s

    def rk(j, i):
        rj = profile.corank(j)
        return rj * s[i - 1] * (1 - genus) + rj * d[i - 1] + s[i - 1] * (d[j - 1] - total_degree)

    return sum(rk(i, i) for i in range(1, l + 1)) - sum(
        rk(i + 1, i) for i in range(1, l)
    )


def test_virtual_dimension_examples():
    p = NestingProfile(2, (1,))
    for d in range(-2, 4):
        assert virtual_dimension(p, (d,), 0, 0) == 1 + 2 * d
    for profile in all_profiles(4, 3):
        zero = (0,) * profile.length
        for g in range(3):
            assert virtual_dimension(profile, zero, g, 0) == (1 - g) * flag_dimension(profile)
    # rank-0 quotients: only the last step moves
    for r in (1, 2, 3):
        p = NestingProfile(r, (0, 0))
        assert virtual_dimension(p, (1, 5), 1, 0) == r * 5


def test_virtual_dimension_vs_rank_pairing():
    for profile in all_profiles(4, 3):
        l = profile.length
        samples = [
            (0,) * l,
            (3,) * l,
            tuple(range(l)),
            tuple(2 - 2 * k for k in range(l)),
        ]
        for g in (0, 1, 2):
            for degE in (-1, 0, 2):
                for d in samples:
                    assert virtual_dimension(profile, d, g, degE) == rank_pairing(
                        profile, d, g, degE
                    )


def test_bundle_and_curve_specs():
    b = BundleSpec((0, -1, 3))
    assert b.rank == 3 and b.total_degree == 2 and b.max_gap == 4
    with pytest.raises(InvalidProfile):
        CurveSpec(-1)
    with pytest.raises(InvalidProfile):
        BundleSpec(())
