"""Representation data: evaluation, tensor refinement, inflation, intertwiners."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nodalcover.errors import PresentationMismatch, SignatureMismatch, SingularBasis
from nodalcover.field import MatrixK
from nodalcover.groups import FPWord, cyclic_group, fp_normalize
from nodalcover.reps import (
    ContinuousRep,
    FiniteQuotientRep,
    eval_word,
    hom_from_generator_images,
    inflate,
    intertwiners,
    rep_tensor,
    trivial_rep,
)

import helpers
from helpers import (
    F3,
    fq_direct_sum,
    random_matrix,
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


def test_fq_direct_sum_rank_additivity():
    a, b = sign_fq(), sign_fq()
    s = fq_direct_sum(a, b)
    assert s.rank == a.rank + b.rank
    assert s.hom[1].entries[0][0] == F3.from_int(-1)
    assert s.hom[1].entries[1][1] == F3.from_int(-1)


# -- intertwiners ----------------------------------------------------------------------

def test_intertwiners_trivial_rank_one():
    sig, pres = sig_with_pres(1, (Z2,))
    unit = trivial_rep(pres, F3, (Z2,))
    basis = intertwiners(unit, unit)
    assert len(basis) == 1
    assert basis[0].entries[0][0].is_one()


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
    assert not solve_linear(M, rhs).is_empty
    # closure under multiplication
    rng = random.Random(73)
    for _ in range(10):
        x = basis[rng.randrange(len(basis))]
        y = basis[rng.randrange(len(basis))]
        prod = x * y
        rhs2 = MK(F3, tuple((prod.entries[i][j],) for i in range(2) for j in range(2)))
        assert not solve_linear(M, rhs2).is_empty
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
