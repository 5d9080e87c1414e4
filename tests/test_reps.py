"""Representation data: evaluation, tensor refinement, inflation, intertwiners."""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from nodalcover.errors import PresentationMismatch, SignatureMismatch, SingularBasis
from nodalcover.field import MatrixK
from nodalcover.groups import FiniteGroup, FPWord, cyclic_group, fp_normalize, symmetric_group
from nodalcover.reps import (
    ContinuousRep,
    FiniteQuotientRep,
    eval_word,
    hom_from_generator_images,
    inflate,
    rep_tensor,
    trivial_rep,
)

import helpers
from helpers import (
    F3,
    F5,
    F7,
    extend_from_generators,
    f7_gen_mats,
    fq_direct_sum,
    hom_failure_oracle,
    intertwiners,
    random_matrix,
    random_tensor_pair,
    rank1_rep,
    rank2_rep,
    random_word,
    s3_rep_2dim,
    sig_with_pres,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)


# -- evaluation -----------------------------------------------------------------

def test_eval_empty_and_single_letter():
    rep = rank2_rep()
    sig = rep.sig
    assert eval_word(rep, FPWord(sig, ())).is_identity()
    for k in (-2, -1, 1, 3):
        assert eval_word(rep, fp_normalize(sig, [(0, k)])) == rep.z_images[0] ** k
    g = fp_normalize(sig, [(1, 1)])
    assert eval_word(rep, g) == rep.factor_homs[0][1]


def test_eval_multiplicative_oracle():
    rep = rank2_rep()
    sig = rep.sig
    rng = random.Random(53)
    for _ in range(500):
        w1 = random_word(rng, sig, rng.randint(0, 4))
        w2 = random_word(rng, sig, rng.randint(0, 4))
        assert eval_word(rep, w1 * w2) == eval_word(rep, w1) * eval_word(rep, w2)


def test_eval_well_defined_on_raw_sequences():
    rep = rank2_rep()
    sig = rep.sig
    raw = [(0, 1), (0, -1), (1, 1), (1, 1), (0, 2)]
    w = fp_normalize(sig, raw)
    prod = rep.identity_matrix()
    for letter in raw:
        prod = prod * helpers.letter_matrix(rep, letter)
    assert prod == eval_word(rep, w)


def test_eval_matches_the_letter_product_oracle():
    rep = s3_rep_2dim()
    rng = random.Random(29)
    for _ in range(100):
        w = random_word(rng, rep.sig, rng.randint(0, 5))
        assert eval_word(rep, w) == helpers.eval_word(rep, w)


def test_eval_signature_mismatch():
    rep = rank1_rep()
    other_sig, _ = sig_with_pres(1, (Z3,))
    with pytest.raises(SignatureMismatch):
        eval_word(rep, FPWord(other_sig, ()))


def test_build_rejects_a_singular_z_image():
    sig, pres = sig_with_pres(1, (Z2,))
    one = MatrixK.identity(F3, 1)
    with pytest.raises(SingularBasis, match="^z1 image is singular$"):
        ContinuousRep.build(pres, F3, [MatrixK.from_rows(F3, [["0"]])], (Z2,),
                            ((one, one),))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 2), rank=st.integers(1, 2))
def test_z_inverses_invert_the_z_images(seed, r, rank):
    rng = random.Random(seed)
    sig, pres = sig_with_pres(r, (Z2,))
    z_images = [random_matrix(rng, F3, rank, invertible=True) for _ in range(r)]
    ident = MatrixK.identity(F3, rank)
    rep = ContinuousRep.build(pres, F3, z_images, (Z2,), ((ident, ident),))
    assert len(rep.z_inverses) == r
    for z_inv, z in zip(rep.z_inverses, rep.z_images):
        assert (z_inv * z).is_identity()


def test_build_validates_homs():
    sig, pres = sig_with_pres(1, (Z2,))
    good = MatrixK.identity(F3, 1)
    bad = MatrixK.from_rows(F3, [["t"]])  # t has infinite order: not an involution
    with pytest.raises(ValueError):
        ContinuousRep.build(pres, F3, [good], (Z2,), ((good, bad),))
    with pytest.raises(Exception):
        ContinuousRep.build(pres, F3, [MatrixK.from_rows(F3, [["0"]])],
                            (Z2,), ((good, good),))


def test_build_names_the_first_pair_breaking_the_law():
    """Z3 images (1, -1, 1) over F_3, scanned on the generator column 1:
    (0,1) and (1,1) hold, and (2,1) is the first pair where
    rho(a) rho(1) != rho(a + 1)."""
    sig, pres = sig_with_pres(1, (Z3,))
    one, neg = MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])
    with pytest.raises(ValueError, match=r"^factor hom 1 \(Z3\): images do not "
                                         r"respect the table at \(2,1\)$"):
        ContinuousRep.build(pres, F3, [one], (Z3,), ((one, neg, one),))


def test_a_group_with_non_generating_generators_cannot_carry_a_rep():
    """The generator law scan is sound only for generators that generate.
    Z4 designated by the identity alone is refused at construction, so
    the non-homomorphism (1, 2, 2, 3) over F_5, which holds at every
    (element, identity) pair, cannot pass as a factor hom through it."""
    sig, pres = sig_with_pres(1, (Z4,))
    one = MatrixK.identity(F5, 1)
    images = tuple(MatrixK.from_rows(F5, [[str(c)]]) for c in (1, 2, 2, 3))

    def build_through(generators):
        G = FiniteGroup(Z4.table, Z4.labels, "Z4", generators)
        return ContinuousRep.build(pres, F5, [one], (G,), (images,))

    with pytest.raises(ValueError, match="^designated generators do not generate the group$"):
        build_through((0,))
    with pytest.raises(ValueError, match=r"images do not respect the table at \(1,1\)$"):
        build_through((1,))


# -- tensor ----------------------------------------------------------------------

def test_tensor_with_unit_keeps_matrices():
    rep = rank2_rep()
    unit = trivial_rep(rep.presentation, F3, rep.factor_groups)
    out = rep_tensor(rep, unit)
    assert out.rank == rep.rank
    assert out.z_images[0] == rep.z_images[0]


def test_tensor_rank_multiplies():
    a, b = rank2_rep(), rank2_rep()
    assert rep_tensor(a, b).rank == 4


def test_tensor_kronecker_oracle_diagonal_groups():
    a, b = rank2_rep(), rank1_rep()
    out = rep_tensor(a, b)
    sig_out = out.sig
    rng = random.Random(59)
    refined = sig_out.factor(0)
    # the diagonal subgroup of Z2 x Z2 is again two elements: (0,0) and (1,1)
    assert refined.order == 2
    for _ in range(100):
        w = random_word(rng, sig_out, 4)
        wa = fp_normalize(a.sig, w.letters)
        wb = fp_normalize(b.sig, w.letters)
        assert eval_word(out, w) == eval_word(a, wa).kron(eval_word(b, wb))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Z2, Z3, Z4, symmetric_group(3)]), st.integers(1, 2),
       st.randoms(use_true_random=False), st.booleans())
def test_generator_extension_is_the_frontier_oracle(G, n, rng, scramble):
    """The same images as the frontier loop, on `f7_hom` data and, with
    scramble, on random generator matrices that need not respect G's
    relations: the walk fixes every image along its spanning tree."""
    gens = f7_gen_mats(rng, G, n)
    if scramble:
        gens = [random_matrix(rng, F7, n) for _ in gens]
    expected = extend_from_generators(G, gens, operator.mul, MatrixK.identity(F7, n))
    assert hom_from_generator_images(F7, G, gens, n) == tuple(expected)


def test_tensor_refines_unequal_quotients():
    sig4, pres = sig_with_pres(1, (Z4,))
    i_mat = MatrixK.from_rows(F3, [["0", "2"], ["1", "0"]])  # order 4 over F_3
    hom4 = hom_from_generator_images(F3, Z4, [i_mat], 2)
    rep4 = ContinuousRep.build(pres, F3, [MatrixK.identity(F3, 2)], (Z4,), (hom4,))
    sig2 = sig_with_pres(1, (Z2,))[0]
    neg = MatrixK.from_rows(F3, [["2"]])
    rep2 = ContinuousRep.build(pres, F3, [MatrixK.identity(F3, 1)], (Z2,),
                               ((MatrixK.identity(F3, 1), neg),))
    out = rep_tensor(rep4, rep2)
    # generators pair (1 mod 4, 1 mod 2); the subgroup they generate has order 4
    assert out.sig.factor(0).order == 4
    assert out.rank == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_tensor_refined_homs_satisfy_the_all_pairs_law(seed):
    """`rep_tensor` checks no refined law; each refined factor hom still maps
    the identity to the identity and respects all |G|^2 products, and the
    checked constructor accepts the same data."""
    out = rep_tensor(*random_tensor_pair(random.Random(seed)))
    for G, homs in zip(out.factor_groups, out.factor_homs):
        assert homs[G.identity].is_identity()
        assert hom_failure_oracle(G, homs, operator.mul) is None
    assert ContinuousRep.build(out.presentation, out.field, out.z_images,
                               out.factor_groups, out.factor_homs) == out


def test_tensor_presentation_mismatch():
    a = rank2_rep()
    other = rank1_rep(r=2)
    with pytest.raises(PresentationMismatch):
        rep_tensor(a, other)


# -- inflation ----------------------------------------------------------------------

def sign_fq(field=F3):
    sig, pres = sig_with_pres(1, (Z2,))
    return FiniteQuotientRep.build(
        pres, field, (Z2,), Z2, [1], [(0, 1)],
        (MatrixK.identity(field, 1), MatrixK.from_rows(field, [[str(field.p - 1)]])))


def q_word(fq, w):
    """Quotient image of a word, one letter at a time."""
    out = fq.group.identity
    for letter in w.letters:
        out = fq.group.table[out][fq.q_letter(letter)]
    return out


def test_inflate_trivial_quotient():
    from nodalcover.groups import trivial_group

    sig, pres = sig_with_pres(1, (Z2,))
    triv = trivial_group()
    fq = FiniteQuotientRep.build(
        pres, F3, (Z2,), triv, [0], [(0, 0)],
        (MatrixK.identity(F3, 2),))
    rep = inflate(fq, pres)
    assert rep.rank == 2
    rng = random.Random(61)
    for _ in range(20):
        w = random_word(rng, rep.sig, 4)
        assert eval_word(rep, w).is_identity()


def test_inflate_sign_parity_oracle():
    fq = sign_fq()
    rep = inflate(fq, fq.presentation)
    sig = rep.sig
    rng = random.Random(67)
    for _ in range(100):
        k = rng.randint(-6, 6)
        w = fp_normalize(sig, [(0, k)])
        expect_identity = (k % 2 == 0)
        assert eval_word(rep, w).is_identity() == expect_identity


def test_inflate_factors_through_quotient():
    fq = sign_fq()
    rep = inflate(fq, fq.presentation)
    sig = rep.sig
    rng = random.Random(71)
    for _ in range(200):
        w = random_word(rng, sig, 5)
        if q_word(fq, w) == fq.group.identity:
            assert eval_word(rep, w).is_identity()
        else:
            assert eval_word(rep, w) == fq.hom[q_word(fq, w)]


def test_fq_validates_surjectivity():
    sig, pres = sig_with_pres(1, (Z2,))
    with pytest.raises(ValueError):
        # everything maps to the identity: not surjective onto two elements
        FiniteQuotientRep.build(pres, F3, (Z2,), Z2, [0], [(0, 0)],
                                (MatrixK.identity(F3, 1),
                                 MatrixK.from_rows(F3, [["2"]])))


def test_fq_names_the_first_pair_breaking_the_quotient_law():
    sig, pres = sig_with_pres(1, (Z3,))
    one, neg = MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])
    with pytest.raises(ValueError, match=r"^quotient hom: images do not respect "
                                         r"the table at \(2,1\)$"):
        FiniteQuotientRep.build(pres, F3, (Z3,), Z3, [1], [(0, 1, 2)], (one, neg, one))


def test_fq_rejects_a_factor_map_that_is_not_a_homomorphism():
    sig, pres = sig_with_pres(1, (Z4,))
    one, neg = MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])
    with pytest.raises(ValueError, match="^factor map 1 is not a homomorphism$"):
        FiniteQuotientRep.build(pres, F3, (Z4,), Z2, [1], [(0, 1, 1, 0)], (one, neg))


def test_fq_rejects_hom_matrices_off_the_field_or_rank():
    """The quotient hom is the only matrix data inflation reads, so its
    field and shape are checked where it is loaded."""
    sig, pres = sig_with_pres(1, (Z2,))
    with pytest.raises(PresentationMismatch, match="wrong coefficient field"):
        FiniteQuotientRep.build(pres, F7, (Z2,), Z2, [1], [(0, 1)],
                                (MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])))
    with pytest.raises(PresentationMismatch, match="share the rep's rank"):
        FiniteQuotientRep.build(pres, F3, (Z2,), Z2, [1], [(0, 1)],
                                (MatrixK.identity(F3, 1), MatrixK.identity(F3, 2)))
    with pytest.raises(PresentationMismatch, match="share the rep's rank"):
        FiniteQuotientRep.build(pres, F3, (Z2,), Z2, [1], [(0, 1)],
                                (MatrixK.from_rows(F3, [["1", "0"]]),) * 2)


def test_fq_direct_sum_rank_additivity():
    a, b = sign_fq(), sign_fq()
    s = fq_direct_sum(a, b)
    assert s.rank == a.rank + b.rank
    assert s.hom[1].entries[0][0] == F3.rf(-1)
    assert s.hom[1].entries[1][1] == F3.rf(-1)


# -- intertwiners ----------------------------------------------------------------------

def test_intertwiners_trivial_rank_one():
    sig, pres = sig_with_pres(1, (Z2,))
    unit = trivial_rep(pres, F3, (Z2,))
    basis = intertwiners(unit, unit)
    assert len(basis) == 1
    assert basis[0].entries[0][0] == F3.one()


def test_intertwiners_scalar_conflict():
    sig, pres = sig_with_pres(1, (Z2,))
    one = MatrixK.identity(F3, 1)
    neg = MatrixK.from_rows(F3, [["2"]])
    a = ContinuousRep.build(pres, F3, [MatrixK.from_rows(F3, [["t"]])], (Z2,),
                            ((one, neg),))
    b = ContinuousRep.build(pres, F3, [MatrixK.from_rows(F3, [["t + 1"]])], (Z2,),
                            ((one, neg),))
    assert intertwiners(a, b) == []


def test_end_contains_identity_and_is_closed():
    rep = rank2_rep()
    basis = intertwiners(rep, rep)
    span_checks = 0
    ident = rep.identity_matrix()
    # identity lies in the span: solve by brute force over the 1- or 2-dim basis
    from nodalcover.field import solve_linear, MatrixK as MK
    cols = tuple(
        tuple(b.entries[i][j] for b in basis)
        for i in range(2) for j in range(2))
    M = MK(F3, cols)
    rhs = MK(F3, tuple((ident.entries[i][j],) for i in range(2) for j in range(2)))
    assert solve_linear(M, rhs).particular is not None
    # closure under multiplication
    rng = random.Random(73)
    for _ in range(10):
        x = basis[rng.randrange(len(basis))]
        y = basis[rng.randrange(len(basis))]
        prod = x * y
        rhs2 = MK(F3, tuple((prod.entries[i][j],) for i in range(2) for j in range(2)))
        assert solve_linear(M, rhs2).particular is not None
        span_checks += 1
    assert span_checks == 10


def test_inflation_preserves_intertwiner_dimension():
    fq = sign_fq()
    fq2 = fq_direct_sum(fq, fq)
    rep1, rep2 = inflate(fq, fq.presentation), inflate(fq2, fq2.presentation)
    d_orig = len(intertwiners(rep1, rep1))
    d_sum = len(intertwiners(rep2, rep2))
    assert d_orig == 1
    assert d_sum == 4  # two copies of the same character: full 2x2 commutant
    assert len(intertwiners(rep1, rep2)) == 2


def test_fq_intertwiners_inject_into_inflation():
    """Morphisms at the finite-quotient level survive inflation unchanged: the
    quotient is surjective, so both solve the same matrix relations."""
    from nodalcover.reps import solve_intertwining

    fq1 = sign_fq()
    fq2 = fq_direct_sum(fq1, fq1)
    pairs = [(fq1.hom[g], fq2.hom[g]) for g in range(fq1.group.order)]
    finite_level = solve_intertwining(F3, fq1.rank, fq2.rank, pairs)
    inflated_level = intertwiners(inflate(fq1, fq1.presentation),
                                  inflate(fq2, fq2.presentation))
    assert len(finite_level) == len(inflated_level) == 2
    for f in finite_level:
        # each finite-level morphism intertwines the inflated generators too
        r1, r2 = inflate(fq1, fq1.presentation), inflate(fq2, fq2.presentation)
        assert r2.z_images[0] * f == f * r1.z_images[0]


def test_s3_two_dimensional_rep_is_irreducible_like():
    rep = s3_rep_2dim()
    rep_const = ContinuousRep.build(
        rep.presentation, rep.field,
        [MatrixK.identity(rep.field, 2)], rep.factor_groups, rep.factor_homs)
    assert len(intertwiners(rep_const, rep_const)) == 1
