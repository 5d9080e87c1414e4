"""Function Hopf algebras, quotient reps as comodules, towers of quotients."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from nodalcover.field import MatrixK
from nodalcover.groups import FiniteGroup, cyclic_group, dihedral_group, symmetric_group
from nodalcover.hopf import HopfAlgebra, QuotientTower, function_hopf, tower_hull
from nodalcover.reps import FiniteQuotientRep

from helpers import F3, LOOP5, DenseHopf, dense_tower_hull, raw_group, sig_with_pres

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
Z8 = cyclic_group(8)
S3 = symmetric_group(3)
D4 = dihedral_group(4)


# -- structure ---------------------------------------------------------------

def test_two_element_comultiplication():
    H = function_hopf(Z2)
    d0 = H.comult(H.basis_vec(0))
    assert d0 == {(0, 0): 1, (1, 1): 1}
    d1 = H.comult(H.basis_vec(1))
    assert d1 == {(0, 1): 1, (1, 0): 1}


def test_antipode_is_inversion_permutation():
    H = function_hopf(S3)
    for g in range(6):
        v = H.antipode(H.basis_vec(g))
        assert v == H.basis_vec(S3.inverse[g])


def test_dimension_is_group_order():
    for G in (Z2, Z4, S3, D4):
        assert function_hopf(G).dim == G.order


def test_coassociativity_triple_sum_oracle():
    # both triple coproducts of e_g list the factorizations g = a b c
    for G in (S3, cyclic_group(6)):
        H = DenseHopf(G)
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
                out[(h, k)] = (out.get((h, k), 0) + c) % F3.p
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
    H = HopfAlgebra(G)
    assert H.comult(v) == dense_comult(H, v)


# -- the axioms from the table, against the dense oracle ----------------------------

def test_non_associative_table_fails_coassociativity():
    with pytest.raises(ValueError, match="^table is not associative$"):
        FiniteGroup(LOOP5, tuple("01234"), "L5", tuple(range(5)))
    with pytest.raises(AssertionError, match="^coassociativity fails at basis element"):
        DenseHopf(raw_group(LOOP5, 0, tuple(range(5)))).verify_axioms()


@pytest.mark.parametrize("generators", [(1,), (0,)])
def test_non_associative_table_fails_whatever_its_generators(generators):
    """LOOP5's element 1 generates only {0, 1}, and the identity alone
    generates nothing more, so construction refuses both before any
    associativity test: a scan of those generator columns would prove
    nothing."""
    with pytest.raises(ValueError, match="^designated generators do not generate the group$"):
        FiniteGroup(LOOP5, tuple("01234"), "L5", generators)


def test_wrong_inverse_fails_the_antipode_law():
    """A group's inverses are worked out from its table, so a wrong one
    cannot be stored; the dense oracle still refuses raw data that has one
    (its coproduct reads the inverses, so the first failure varies)."""
    G = FiniteGroup(Z3.table, Z3.labels, "Z3", Z3.generators)
    assert G.inverse == (0, 2, 1)
    with pytest.raises(AssertionError):
        DenseHopf(raw_group(Z3.table, 0, (0, 1, 2))).verify_axioms()


def test_wrong_identity_fails_the_counit_law():
    """Likewise for the identity."""
    assert FiniteGroup(Z3.table, Z3.labels, "Z3", Z3.generators).identity == 0
    with pytest.raises(AssertionError, match="^counit law fails at basis element 0$"):
        DenseHopf(raw_group(Z3.table, 1, Z3.inverse)).verify_axioms()


def relabelled(G, perm):
    """G transported along the bijection x -> perm[x]: identity and inverses
    move with it, and construction works them out again."""
    m = G.order
    back = [0] * m
    for x, y in enumerate(perm):
        back[y] = x
    table = tuple(tuple(perm[G.table[back[a]][back[b]]] for b in range(m)) for a in range(m))
    H = FiniteGroup(table, tuple(str(i) for i in range(m)), G.name,
                    tuple(perm[g] for g in G.generators))
    assert H.identity == perm[G.identity]
    assert H.inverse == tuple(perm[G.inverse[back[y]]] for y in range(m))
    return H


SMALL_GROUPS = ([cyclic_group(n) for n in range(1, 9)]
                + [dihedral_group(n) for n in (2, 3, 4)] + [S3])


@st.composite
def small_groups(draw):
    """A group of order <= 8 under a random labelling, and its table with
    two entries swapped (a swap of equal entries leaves it unchanged)."""
    G = draw(st.sampled_from(SMALL_GROUPS))
    G = relabelled(G, draw(st.permutations(range(G.order))))
    m = G.order
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    (a, b), (c, d) = draw(cells), draw(cells)
    rows = [list(row) for row in G.table]
    rows[a][b], rows[c][d] = rows[c][d], rows[a][b]
    return G, tuple(map(tuple, rows))


@settings(max_examples=150, deadline=None)
@given(small_groups())
def test_table_check_agrees_with_the_dense_oracle(case):
    """Construction accepts a swapped table exactly when the swap was of
    equal entries: any other swap repeats an entry in a row or a column, and
    a group table is a Latin square.  The dense oracle checks all
    3m + m^2 + 1 axiom instances of every accepted group, which
    `HopfAlgebra`'s docstring proves from the table."""
    G, swapped = case
    try:
        H = FiniteGroup(swapped, G.labels, G.name, G.generators)
    except ValueError:
        H = None
    assert (H is not None) == (swapped == G.table)
    assert H is None or H == G
    assert DenseHopf(G).verify_axioms() == {
        "dimension": G.order, "checks": 3 * G.order + G.order ** 2 + 1}


def test_commutative_always_cocommutative_iff_abelian():
    for G, abelian in ((Z2, True), (Z4, True), (S3, False), (D4, False)):
        H = function_hopf(G)
        # the product is pointwise, so any two basis vectors commute
        D = DenseHopf(G)
        basis = [D.basis_vec(g) for g in range(G.order)]
        assert all(D.mult(v, w) == D.mult(w, v) for v in basis for w in basis)
        assert H.is_cocommutative() == abelian
        # the dense oracle: every coproduct Delta(e_g) is symmetric
        cops = [H.comult(H.basis_vec(g)) for g in range(G.order)]
        assert all({(k, h): c for (h, k), c in d.items()} == d for d in cops) == abelian


# -- comodules -------------------------------------------------------------------

def test_roundtrip_names_the_first_pair_breaking_coassociativity():
    """A quotient rep whose hom breaks the law, that is, whose coaction is
    not coassociative, cannot be built, not even by the raw constructor:
    Z3 images (1, -1, 1) hold at (0,1) and (1,1) on the generator column and
    first fail at (2,1)."""
    sig, pres = sig_with_pres(1, (Z3,))
    one, neg = MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])
    with pytest.raises(ValueError,
                       match=r"^quotient hom: images do not respect the table at \(2,1\)$"):
        FiniteQuotientRep(pres, F3, (Z3,), Z3, (1,), ((0, 1, 2),), (one, neg, one))


def test_certificates_check_nothing_that_construction_proved(monkeypatch):
    """`function_hopf` and `tower_hull` report on inputs already built: with
    every group-law check and every matrix product made to raise, and the
    groups' tables refusing to be read, they still run."""
    z2, z4, z8, s3 = cyclic_group(2), cyclic_group(4), cyclic_group(8), symmetric_group(3)
    tower = QuotientTower.build(
        [z2, z4, z8], [[x % 2 for x in range(4)], [x % 4 for x in range(8)]])

    def refuse(*args):
        raise AssertionError("a proved law was checked again")

    class Unread(tuple):
        """A table that knows its size and refuses every read."""
        __getitem__ = __iter__ = refuse

    for G in (z2, z4, z8, s3):
        object.__setattr__(G, "table", Unread(G.table))
    for owner, name in ((FiniteGroup, "__init__"), (FiniteGroup, "hom_failure"),
                        (FiniteGroup, "closure"), (QuotientTower, "map_failure"),
                        (MatrixK, "__mul__")):
        monkeypatch.setattr(owner, name, refuse)
    assert function_hopf(s3).dim == 6
    assert tower_hull(tower).dimensions == (2, 4, 8)


# -- towers -----------------------------------------------------------------------

def test_tower_of_twos():
    tower = QuotientTower.build(
        [Z2, Z4, Z8],
        [[x % 2 for x in range(4)], [x % 4 for x in range(8)]])
    report = tower_hull(tower)
    assert report.dimensions == (2, 4, 8)
    assert report.injective


def test_constant_tower_is_isomorphism_levelwise():
    tower = QuotientTower.build([Z4, Z4], [list(range(4))])
    report = tower_hull(tower)
    assert report.dimensions == (4, 4)


def test_tower_validation_rejects_non_surjective():
    with pytest.raises(ValueError):
        QuotientTower.build([Z4, Z4], [[(2 * x) % 4 for x in range(4)]])
    with pytest.raises(ValueError, match="^map 0 is not a homomorphism$"):
        QuotientTower.build([Z2, Z4], [[0, 1, 1, 0]])
    # the raw constructor refuses it too; the dense oracle refuses the raw data
    maps = (tuple((2 * x) % 4 for x in range(4)),)
    with pytest.raises(ValueError, match="^map 0 is not surjective$"):
        QuotientTower((Z4, Z4), maps)
    with pytest.raises(AssertionError, match="^level 0: element 1 has no preimage"):
        dense_tower_hull(SimpleNamespace(groups=(Z4, Z4), maps=maps))


def test_surjective_non_homomorphism_dual_breaks_the_coproduct():
    """x -> 0, 1, 1, 0 maps Z4 onto Z2 but sends 1 + 1 = 2 to 1, not 1 + 1 = 0."""
    maps = ((0, 1, 1, 0),)
    with pytest.raises(ValueError, match="^map 0 is not a homomorphism$"):
        QuotientTower((Z2, Z4), maps)
    with pytest.raises(AssertionError, match="^dual map 0 does not respect the coproduct$"):
        dense_tower_hull(SimpleNamespace(groups=(Z2, Z4), maps=maps))


def test_tower_hull_agrees_with_the_dense_oracle():
    for groups, maps in (
            ([Z2, Z4, Z8], [[x % 2 for x in range(4)], [x % 4 for x in range(8)]]),
            ([Z2, S3], [[0, 1, 1, 0, 0, 1]]),  # the sign of a permutation
            ([Z2, D4], [[0] * 4 + [1] * 4])):  # rotations and reflections
        tower = QuotientTower.build(groups, maps)
        assert tower_hull(tower) == dense_tower_hull(tower)


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
