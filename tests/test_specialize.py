"""Pipelines: sp on representations, F on quotient reps, the square."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nodalcover import cli
from nodalcover import io as spec_io
from nodalcover import reps as reps_module
from nodalcover import specialize as specialize_module
from nodalcover import stratified as stratified_module
from nodalcover.covering import ComponentIndex
from nodalcover.curves import pi1_presentation
from nodalcover.descent import FiniteCocycle, descend_inflation, datum_from_rep
from nodalcover.errors import SquareViolation
from nodalcover.field import MatrixK
from nodalcover.groups import cyclic_group, fp_normalize, kernel_words, symmetric_group
from nodalcover.reps import (
    ContinuousRep,
    FiniteQuotientRep,
    hom_from_generator_images,
    inflate,
    trivial_rep,
)
from nodalcover.specialize import (
    F_pipeline,
    commuting_square_check,
    sp_pipeline,
    sp_tensor_certificate,
)
from nodalcover.descent import hom_cocycle

from helpers import (
    F3,
    F7,
    fq_direct_sum,
    hom_failure_oracle,
    intertwiners,
    random_f7_quotient,
    rank1_rep,
    rank2_rep,
    sig_with_pres,
)

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
    assert res.cocycle.passed and res.cocycle.witness is None
    assert res.domain is not None and res.lattice.orbit_reps
    assert res.fdiv.generator.scope == "full"


def test_sp_rank_one_exponent_gradient():
    sig, pres = sig_with_pres(1, (Z2,))
    one = MatrixK.identity(F3, 1)
    neg = MatrixK.from_rows(F3, [["2"]])
    rep = ContinuousRep.build(pres, F3, [MatrixK.from_rows(F3, [["t"]])],
                              (Z2,), ((one, neg),))
    res = sp_pipeline(rep)
    assert res.cocycle.passed
    sig = rep.sig
    exps = []
    for k in range(-2, 3):
        c = ComponentIndex(0, sig, fp_normalize(sig, [(0, k)]).letters)
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
    assert res.cocycle.passed
    assert res.domain is None


def test_sp_domain_over_a_kernel_with_no_short_word():
    """ker alpha of S3 * Z2 is free of rank 1 - 12 (1/6 + 1/2 - 1) = 5, but
    its first word is a commutator of length 4: below that bound the
    pipeline still builds the domain from it, not a trivial-deck certificate."""
    _, pres = sig_with_pres(0, (S3, Z2))
    res = sp_pipeline(trivial_rep(pres, F3, (S3, Z2)), max_len=3)
    assert res.cocycle.passed
    assert str(res.domain.word) == "g1:021 * g2:1 * g1:021 * g2:1"


def test_sp_tensor_certificate_random_pair():
    cert = sp_tensor_certificate(rank2_rep(), rank1_rep())
    assert cert.passed


def test_tensor_certificate_compares_the_z_letters_only(monkeypatch):
    """The factor letters are proved, not compared: on rank2 (x) rank1 the
    certificate builds the refined group once, in `rep_tensor`, makes no
    matrix product, takes the tensor rep's three Kronecker products and one
    for the Z letter, and compares that one pair of matrices."""
    r1, r2 = rank2_rep(), rank1_rep()
    counts = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (reps_module, stratified_module):
        if hasattr(module, "product_subgroup"):
            monkeypatch.setattr(module, "product_subgroup",
                                counted("product_subgroup", module.product_subgroup))
    for name in ("__mul__", "kron", "__eq__"):
        monkeypatch.setattr(MatrixK, name, counted(name, getattr(MatrixK, name)))
    cert = sp_tensor_certificate(r1, r2)
    assert cert.passed and cert.generators_checked == 3
    assert dict(counts) == {"product_subgroup": 1, "kron": 4, "__eq__": 1}


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
    fin = F_pipeline(fq)
    assert fin.check_law()
    assert fin.mats[0].is_identity()


def test_F_sign_rep_cocycle():
    fin = F_pipeline(_sign_fq())
    assert fin.mats[1] == MatrixK.from_rows(F3, [["2"]])
    assert fin.check_law()


def test_F_pipeline_makes_no_matrix_product(monkeypatch):
    """The direct route reads rho(g^-1) off the quotient rep, whose law its
    construction proved, and multiplies nothing."""
    fq = _sign_fq()

    def refuse(*args):
        raise AssertionError("a proved law was checked again")

    monkeypatch.setattr(MatrixK, "__mul__", refuse)
    assert F_pipeline(fq).mats[1] == fq.hom[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_F_pipeline_data_satisfies_the_law_it_does_not_check(seed):
    """`check_law`, and the anti-law on all |G|^2 pairs, hold on the data
    `F_pipeline` builds from random quotient reps without checking them."""
    fq = random_f7_quotient(random.Random(seed))
    fin = F_pipeline(fq)
    assert fin.check_law()
    assert fin.mats[fq.group.identity].is_identity()
    assert hom_failure_oracle(fq.group, fin.mats, lambda x, y: y * x) is None


def test_F_rank_additive_under_direct_sum():
    fq = _sign_fq()
    s = fq_direct_sum(fq, fq)
    assert F_pipeline(s).rank == 2 * fq.rank


# -- the square ---------------------------------------------------------------------

def test_square_trivial():
    from nodalcover.groups import trivial_group

    sig, pres = sig_with_pres(1, (Z2,))
    triv = trivial_group()
    fq = FiniteQuotientRep.build(pres, F3, (Z2,), triv, [0], [(0, 0)],
                                 (MatrixK.identity(F3, 2),))
    cert = commuting_square_check(fq, pres, max_len=4)
    assert cert.passed and cert.elements_compared == 1


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
    fin_f = F_pipeline(other)
    assert fin_sp.mats[1] != fin_f.mats[1]


def test_square_failure_names_the_element_where_the_routes_part(monkeypatch, capsys):
    """A direct route that is wrong at one element makes the square raise
    `SquareViolation` with that element's label as witness, and makes the
    `square` command report FAIL with exit 1."""
    fq_path, curve_path = DATA / "z2_sign.json", DATA / "cycle3.json"
    fq = spec_io.load_fq(fq_path, spec_io.load_curve(curve_path))
    true_route = specialize_module.F_pipeline
    wrong_at = fq.group.nonidentity()[-1]

    def wrong_route(quotient):
        fin = true_route(quotient)
        mats = list(fin.mats)
        mats[wrong_at] = mats[wrong_at] * MatrixK.from_rows(quotient.field, [["2"]])
        return FiniteCocycle(fin.group, tuple(mats))

    monkeypatch.setattr(specialize_module, "F_pipeline", wrong_route)
    with pytest.raises(SquareViolation) as info:
        commuting_square_check(fq, fq.presentation, max_len=4)
    label = fq.group.labels[wrong_at]
    assert info.value.witness == label
    assert str(info.value) == f"routes disagree at quotient element {label}"

    capsys.readouterr()
    code = cli.main(["--format", "json", "square", str(fq_path), str(curve_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert (report["result"], report["ok"]) == ("FAIL", False)
    assert report["reason"] == f"routes disagree at quotient element {label}"


DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


@pytest.mark.parametrize("fq_file, curve_file, max_len, products, words", [
    ("s3_2dim.json", "nodal_cubic.json", 6, 47, 6018),
    ("s3_2dim.json", "nodal_cubic.json", 40, 47, 128597964580756467848386),
    ("z2_sign.json", "cycle3.json", 6, 5, 190),
])
def test_square_checks_the_group_law_once(monkeypatch, fq_file, curve_file,
                                          max_len, products, words):
    """The loaded quotient's law is not re-checked: the square's matrix
    products are the collapse's walk, one per (quotient element, letter)
    edge except the edges out of the identity, which take the letter twist
    itself, plus its one law check, one product per (element, generator)."""
    curve = spec_io.load_curve(DATA / curve_file)
    fq = spec_io.load_fq(DATA / fq_file, curve)
    count = [0]
    mul = MatrixK.__mul__

    def counted(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(MatrixK, "__mul__", counted)
    cert = commuting_square_check(fq, pi1_presentation(curve), max_len=max_len)
    assert (count[0], cert.words_checked) == (products, words)
