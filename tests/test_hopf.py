"""Function Hopf algebras, comodule roundtrips, towers of quotients."""

import pytest
from hypothesis import given, settings, strategies as st

from nodalcover.errors import NonInjectiveDual, RoundtripFailure
from nodalcover.field import MatrixK
from nodalcover.groups import cyclic_group, dihedral_group, symmetric_group
from nodalcover.hopf import (
    HopfAlgebra,
    QuotientTower,
    function_hopf,
    rep_comodule_roundtrip,
    tower_hull,
)
from nodalcover.reps import FiniteQuotientRep

from helpers import F3, sig_with_pres

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
Z8 = cyclic_group(8)
S3 = symmetric_group(3)
D4 = dihedral_group(4)


# -- structure ---------------------------------------------------------------

def test_two_element_comultiplication():
    H = function_hopf(Z2, F3)
    d0 = H.comult(H.basis_vec(0))
    assert d0 == {(0, 0): 1, (1, 1): 1}
    d1 = H.comult(H.basis_vec(1))
    assert d1 == {(0, 1): 1, (1, 0): 1}


def test_antipode_is_inversion_permutation():
    H = function_hopf(S3, F3)
    for g in range(6):
        v = H.antipode(H.basis_vec(g))
        assert v == H.basis_vec(S3.inverse[g])


def test_dimension_is_group_order():
    for G in (Z2, Z4, S3, D4):
        assert function_hopf(G, F3).dim == G.order


def test_coassociativity_triple_sum_oracle():
    # both triple coproducts of e_g list the factorizations g = a b c
    for G in (S3, cyclic_group(6)):
        H = function_hopf(G, F3)
        cops = [H.comult(H.basis_vec(g)) for g in range(G.order)]
        for g in range(G.order):
            triples = {(a, b, c)
                       for a in range(G.order) for b in range(G.order)
                       for c in range(G.order)
                       if G.table[G.table[a][b]][c] == g}
            left = H._comult_leg(cops[g], 0, cops)
            assert set(left) == triples
            assert all(v == 1 for v in left.values())


def dense_comult(H, v):
    """Convolution coproduct by its definition: every pair (h, k) gets v(hk)."""
    G = H.group
    out = {}
    for h in range(G.order):
        for k in range(G.order):
            c = v[G.table[h][k]]
            if c:
                out[(h, k)] = H.base.cadd(out.get((h, k), 0), c)
    return {key: c for key, c in out.items() if c}


@st.composite
def group_vectors(draw):
    G = draw(st.sampled_from([cyclic_group(n) for n in range(1, 7)] + [S3]))
    v = tuple(draw(st.lists(st.integers(0, 2), min_size=G.order, max_size=G.order)))
    return G, v


@settings(max_examples=100, deadline=None)
@given(group_vectors())
def test_sparse_comult_equals_dense_definition(case):
    G, v = case
    H = HopfAlgebra(G, F3)
    assert H.comult(v) == dense_comult(H, v)


def test_commutative_always_cocommutative_iff_abelian():
    for G, abelian in ((Z2, True), (Z4, True), (S3, False), (D4, False)):
        H = function_hopf(G, F3)
        assert H.is_commutative()
        assert H.is_cocommutative() == abelian


# -- comodules -------------------------------------------------------------------

def _sign_fq():
    sig, pres = sig_with_pres(1, (Z2,))
    return FiniteQuotientRep.build(
        pres, F3, (Z2,), Z2, [1], [(0, 1)],
        (MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])))


def test_roundtrip_trivial_and_sign():
    report = rep_comodule_roundtrip(_sign_fq())
    assert report.exact and report.coassociative_pairs == 4


def test_roundtrip_nonabelian():
    from nodalcover.reps import hom_from_generator_images
    from helpers import F7

    sig, pres = sig_with_pres(1, (S3,))
    swap = MatrixK.from_rows(F7, [["0", "1"], ["1", "0"]])
    rot = MatrixK.from_rows(F7, [["0", "6"], ["1", "6"]])
    hom = hom_from_generator_images(F7, S3, [swap, rot], 2)
    fq = FiniteQuotientRep.build(pres, F7, (S3,), S3, [2], [tuple(range(6))], hom)
    report = rep_comodule_roundtrip(fq)
    assert report.exact and report.coassociative_pairs == 36


def test_roundtrip_names_the_first_pair_breaking_coassociativity():
    """A raw-constructed quotient rep skips the law check at build: Z3 images
    (1, -1, 1) first fail at (1,2)."""
    sig, pres = sig_with_pres(1, (Z3,))
    one, neg = MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])
    fq = FiniteQuotientRep(pres, F3, 1, (Z3,), Z3, (1,), ((0, 1, 2),), (one, neg, one))
    with pytest.raises(RoundtripFailure, match=r"^comodule coassociativity fails at \(1,2\)$"):
        rep_comodule_roundtrip(fq)


# -- towers -----------------------------------------------------------------------

def test_tower_of_twos():
    tower = QuotientTower.build(
        [Z2, Z4, Z8],
        [[x % 2 for x in range(4)], [x % 4 for x in range(8)]])
    report = tower_hull(tower, F3)
    assert report.dimensions == (2, 4, 8)
    assert report.injective and report.hopf_maps_verified == 2


def test_constant_tower_is_isomorphism_levelwise():
    tower = QuotientTower.build([Z4, Z4], [list(range(4))])
    report = tower_hull(tower, F3)
    assert report.dimensions == (4, 4)


def test_tower_validation_rejects_non_surjective():
    with pytest.raises(ValueError):
        QuotientTower.build([Z4, Z4], [[(2 * x) % 4 for x in range(4)]])
    with pytest.raises(ValueError, match="^map 0 is not a homomorphism$"):
        QuotientTower.build([Z2, Z4], [[0, 1, 1, 0]])
    # an unvalidated tower is caught again by the dual-injectivity check
    tower = QuotientTower((Z4, Z4), (tuple((2 * x) % 4 for x in range(4)),))
    with pytest.raises(NonInjectiveDual):
        tower_hull(tower, F3)


def dual_matrix(tower, i):
    """0/1 matrix of the dual map: rows indexed upstairs, columns down."""
    up, down = tower.groups[i + 1], tower.groups[i]
    m = tower.maps[i]
    return [[1 if m[h] == g else 0 for g in range(down.order)] for h in range(up.order)]


def test_dual_maps_compose():
    tower = QuotientTower.build(
        [Z2, Z4, Z8],
        [[x % 2 for x in range(4)], [x % 4 for x in range(8)]])
    d0 = dual_matrix(tower, 0)  # 4 x 2
    d1 = dual_matrix(tower, 1)  # 8 x 4
    composite_map = [(x % 4) % 2 for x in range(8)]
    direct = [[1 if composite_map[h] == g else 0 for g in range(2)]
              for h in range(8)]
    product = [[sum(d1[h][k] * d0[k][g] for k in range(4)) for g in range(2)]
               for h in range(8)]
    assert product == direct
