"""Function Hopf algebras, comodule roundtrips, towers of quotients."""

import pytest
from hypothesis import given, settings, strategies as st

from nodalcover.errors import AxiomViolation, NonInjectiveDual, RoundtripFailure
from nodalcover.field import MatrixK
from nodalcover.groups import FiniteGroup, cyclic_group, dihedral_group, symmetric_group
from nodalcover.hopf import (
    HopfAlgebra,
    QuotientTower,
    function_hopf,
    rep_comodule_roundtrip,
    tower_hull,
)
from nodalcover.reps import FiniteQuotientRep

from helpers import F3, DenseHopf, dense_tower_hull, sig_with_pres

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
        H = DenseHopf(G, F3)
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


# -- the axioms from the table, against the dense oracle ----------------------------

# The smallest loop that is not a group: an identity and two-sided inverses
# (every element is its own), but (1 1) 2 = 0 2 = 2 while 1 (1 2) = 1 3 = 4.
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def test_non_associative_table_fails_coassociativity():
    G = FiniteGroup(LOOP5, tuple("01234"), "L5", tuple(range(5)), 0, tuple(range(5)))
    with pytest.raises(AxiomViolation, match="^coassociativity fails at basis element 2$"):
        function_hopf(G, F3)
    with pytest.raises(AxiomViolation):
        DenseHopf(G, F3).verify_axioms()


@pytest.mark.parametrize("generators", [(1,), (0,)])
def test_non_associative_table_fails_whatever_its_generators(generators):
    """The associativity scan covers all pairs.  LOOP5's element 1 generates
    only {0, 1}, and with the identity alone a scan of the generator columns
    would test nothing at all."""
    G = FiniteGroup(LOOP5, tuple("01234"), "L5", generators, 0, tuple(range(5)))
    with pytest.raises(AxiomViolation, match="^coassociativity fails at basis element 2$"):
        HopfAlgebra(G, F3).verify_axioms()


def test_wrong_inverse_fails_the_antipode_law():
    G = FiniteGroup(Z3.table, Z3.labels, "Z3", Z3.generators, Z3.identity, (0, 1, 2))
    with pytest.raises(AxiomViolation, match="^antipode convolution fails at 1$"):
        function_hopf(G, F3)
    with pytest.raises(AxiomViolation):
        DenseHopf(G, F3).verify_axioms()


def test_wrong_identity_fails_the_counit_law():
    G = FiniteGroup(Z3.table, Z3.labels, "Z3", Z3.generators, 1, Z3.inverse)
    with pytest.raises(AxiomViolation, match="^counit law fails at basis element 0$"):
        function_hopf(G, F3)


def relabelled(G, perm):
    """G transported along the bijection x -> perm[x]: identity and inverses move too."""
    m = G.order
    back = [0] * m
    for x, y in enumerate(perm):
        back[y] = x
    table = tuple(tuple(perm[G.table[back[a]][back[b]]] for b in range(m)) for a in range(m))
    inverse = tuple(perm[G.inverse[back[y]]] for y in range(m))
    return FiniteGroup(table, tuple(str(i) for i in range(m)), G.name,
                       tuple(perm[g] for g in G.generators), perm[G.identity], inverse)


SMALL_GROUPS = ([cyclic_group(n) for n in range(1, 9)]
                + [dihedral_group(n) for n in (2, 3, 4)] + [S3])


@st.composite
def small_groups(draw):
    """A group of order <= 8 under a random labelling, and the same table
    with two entries swapped (a swap of equal entries leaves it unbroken)."""
    G = draw(st.sampled_from(SMALL_GROUPS))
    G = relabelled(G, draw(st.permutations(range(G.order))))
    m = G.order
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    (a, b), (c, d) = draw(cells), draw(cells)
    rows = [list(row) for row in G.table]
    rows[a][b], rows[c][d] = rows[c][d], rows[a][b]
    broken = FiniteGroup(tuple(map(tuple, rows)), G.labels, G.name, G.generators,
                         G.identity, G.inverse)
    return G, broken


def verdict(H):
    try:
        return H.verify_axioms()
    except AxiomViolation:
        return None


@settings(max_examples=150, deadline=None)
@given(small_groups())
def test_table_check_agrees_with_the_dense_oracle(case):
    G, broken = case
    assert verdict(HopfAlgebra(G, F3)) == verdict(DenseHopf(G, F3)) == {
        "dimension": G.order, "checks": 3 * G.order + G.order ** 2 + 1}
    # the table check proves a group, and every group passes the dense suite,
    # so the table check cannot pass where the oracle fails
    dense = verdict(DenseHopf(broken, F3))
    table = verdict(HopfAlgebra(broken, F3))
    assert dense is not None or table is None
    if table is not None:
        assert table == dense


def test_commutative_always_cocommutative_iff_abelian():
    for G, abelian in ((Z2, True), (Z4, True), (S3, False), (D4, False)):
        H = function_hopf(G, F3)
        assert H.is_commutative()
        assert H.is_cocommutative() == abelian
        # the dense oracle: every coproduct Delta(e_g) is symmetric
        cops = [H.comult(H.basis_vec(g)) for g in range(G.order)]
        assert all({(k, h): c for (h, k), c in d.items()} == d for d in cops) == abelian


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
    (1, -1, 1) hold at (0,1) and (1,1) on the generator column and first fail
    at (2,1)."""
    sig, pres = sig_with_pres(1, (Z3,))
    one, neg = MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])
    fq = FiniteQuotientRep(pres, F3, 1, (Z3,), Z3, (1,), ((0, 1, 2),), (one, neg, one))
    with pytest.raises(RoundtripFailure, match=r"^comodule coassociativity fails at \(2,1\)$"):
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
    with pytest.raises(NonInjectiveDual, match="^level 0: element 1 has no preimage"):
        tower_hull(tower, F3)
    with pytest.raises(NonInjectiveDual):
        dense_tower_hull(tower, F3)


def test_surjective_non_homomorphism_dual_breaks_the_coproduct():
    """x -> 0, 1, 1, 0 maps Z4 onto Z2 but sends 1 + 1 = 2 to 1, not 1 + 1 = 0."""
    tower = QuotientTower((Z2, Z4), ((0, 1, 1, 0),))
    with pytest.raises(AxiomViolation, match=r"^dual map 0 does not respect the coproduct at \(1,1\)$"):
        tower_hull(tower, F3)
    with pytest.raises(AxiomViolation, match="^dual map 0 does not respect the coproduct$"):
        dense_tower_hull(tower, F3)


def test_tower_hull_agrees_with_the_dense_oracle():
    for groups, maps in (
            ([Z2, Z4, Z8], [[x % 2 for x in range(4)], [x % 4 for x in range(8)]]),
            ([Z2, S3], [[0, 1, 1, 0, 0, 1]]),  # the sign of a permutation
            ([Z2, D4], [[0] * 4 + [1] * 4])):  # rotations and reflections
        tower = QuotientTower.build(groups, maps)
        assert tower_hull(tower, F3) == dense_tower_hull(tower, F3)


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
