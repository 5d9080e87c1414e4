"""Pipelines: sp on representations, F on quotient reps, the square."""

from nodalcover.covering import canonical_component
from nodalcover.descent import descend_inflation, datum_from_rep
from nodalcover.field import MatrixK
from nodalcover.groups import cyclic_group, fp_normalize, kernel_words, symmetric_group
from nodalcover.reps import (
    ContinuousRep,
    FiniteQuotientRep,
    hom_from_generator_images,
    inflate,
    intertwiners,
    trivial_rep,
)
from nodalcover.specialize import (
    F_pipeline,
    commuting_square_check,
    sp_pipeline,
    sp_tensor_certificate,
)
from nodalcover.descent import hom_cocycle

from helpers import F3, F7, fq_direct_sum, rank1_rep, rank2_rep, sig_with_pres

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group(3)


def _sign_fq(field=F3):
    sig, pres = sig_with_pres(1, (Z2,))
    return FiniteQuotientRep.build(
        pres, field, (Z2,), Z2, [1], [(0, 1)],
        (MatrixK.identity(field, 1),
         MatrixK.from_rows(field, [[str(field.p - 1)]])))


# -- sp pipeline -----------------------------------------------------------------

def test_sp_trivial_rep_all_certificates_pass():
    sig, pres = sig_with_pres(1, (Z2,))
    res = sp_pipeline(trivial_rep(pres, F3, (Z2,)))
    assert res.passed
    names = {c.name for c in res.certificates}
    assert {"finite-cover", "freeness", "fundamental-domain", "cocycle",
            "divided-sequence", "integral-model"} <= names


def test_sp_rank_one_exponent_gradient():
    sig, pres = sig_with_pres(1, (Z2,))
    one = MatrixK.identity(F3, 1)
    neg = MatrixK.from_rows(F3, [["2"]])
    rep = ContinuousRep.build(pres, F3, [MatrixK.from_rows(F3, [["t"]])],
                              (Z2,), ((one, neg),))
    res = sp_pipeline(rep)
    assert res.passed
    sig = rep.sig
    exps = []
    for k in range(-2, 3):
        c = canonical_component(sig, 0, fp_normalize(sig, [(0, k)]))
        exps.append(res.lattice.lattice_of(c).diagonal_exponents[0])
    # the twist of z is 1/t, so exponents fall linearly along the orbit
    assert exps == [2, 1, 0, -1, -2]


def test_sp_no_kernel_word_case():
    sig, pres = sig_with_pres(0, (Z2, Z3))
    rep = trivial_rep(pres, F3, (Z2, Z3))
    assert next(kernel_words(sig, 4), None) is not None  # commutators appear at length 4
    sig1, pres1 = sig_with_pres(0, (Z2,))
    rep1 = trivial_rep(pres1, F3, (Z2,))
    assert next(kernel_words(sig1, 4), None) is None
    res = sp_pipeline(rep1)
    assert res.passed
    assert res.domain is None


def test_sp_tensor_certificate_random_pair():
    cert = sp_tensor_certificate(rank2_rep(), rank1_rep())
    assert cert.passed


def test_sp_hom_dims_match_intertwiners():
    r1, r2 = rank2_rep(), rank1_rep()
    d1, d2 = datum_from_rep(r1), datum_from_rep(r2)
    assert len(hom_cocycle(d1, d2)) == len(intertwiners(r1, r2))


# -- F pipeline -------------------------------------------------------------------

def test_F_trivial_quotient():
    from nodalcover.groups import trivial_group

    sig, pres = sig_with_pres(1, (Z2,))
    triv = trivial_group()
    fq = FiniteQuotientRep.build(pres, F3, (Z2,), triv, [0], [(0, 0)],
                                 (MatrixK.identity(F3, 1),))
    res = F_pipeline(fq)
    assert res.passed
    assert res.finite_cocycle.mats[0].is_identity()


def test_F_sign_rep_cocycle():
    res = F_pipeline(_sign_fq())
    assert res.passed
    assert res.finite_cocycle.mats[1] == MatrixK.from_rows(F3, [["2"]])
    assert res.finite_cocycle.check_law()


def test_F_rank_additive_under_direct_sum():
    fq = _sign_fq()
    s = fq_direct_sum(fq, fq)
    res = F_pipeline(s)
    assert res.finite_cocycle.rank == 2 * fq.rank


# -- the square ---------------------------------------------------------------------

def test_square_trivial():
    from nodalcover.groups import trivial_group

    sig, pres = sig_with_pres(1, (Z2,))
    triv = trivial_group()
    fq = FiniteQuotientRep.build(pres, F3, (Z2,), triv, [0], [(0, 0)],
                                 (MatrixK.identity(F3, 2),))
    cert = commuting_square_check(fq, pres, max_len=4)
    assert cert.passed
    assert cert.witness.is_identity()


def test_square_sign_rep():
    fq = _sign_fq()
    cert = commuting_square_check(fq, fq.presentation, max_len=5)
    assert cert.passed
    assert cert.elements_compared == 2


def test_square_sign_rep_through_two_loops():
    sig, pres = sig_with_pres(2, (Z2,))
    fq = FiniteQuotientRep.build(
        pres, F3, (Z2,), Z2, [1, 1], [(0, 1)],
        (MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])))
    cert = commuting_square_check(fq, pres, max_len=4)
    assert cert.passed


def test_square_nonabelian_two_dim():
    sig, pres = sig_with_pres(1, (S3,))
    swap = MatrixK.from_rows(F7, [["0", "1"], ["1", "0"]])
    rot = MatrixK.from_rows(F7, [["0", "6"], ["1", "6"]])
    hom = hom_from_generator_images(F7, S3, [swap, rot], 2)
    fq = FiniteQuotientRep.build(pres, F7, (S3,), S3, [S3.generators[0]],
                                 [tuple(range(6))], hom)
    cert = commuting_square_check(fq, pres, max_len=5)
    assert cert.passed
    assert cert.elements_compared == 6


def test_square_detects_route_divergence():
    """Forcing the two routes apart must raise, not silently pass: compare the
    collapse of one quotient rep against the direct data of a different one."""
    fq = _sign_fq()
    rep = inflate(fq, fq.presentation)
    fin_sp = descend_inflation(datum_from_rep(rep), fq, 4)
    other = FiniteQuotientRep.build(
        fq.presentation, F3, (Z2,), Z2, [1], [(0, 1)],
        (MatrixK.identity(F3, 1), MatrixK.identity(F3, 1) * MatrixK.from_rows(F3, [["1"]])))
    fin_f = F_pipeline(other).finite_cocycle
    assert fin_sp.mats[1] != fin_f.mats[1]
