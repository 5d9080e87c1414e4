"""Divided sequences: constancy, transport modes, morphism chains, tensor."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nodalcover.descent import datum_from_rep, hom_cocycle
from nodalcover.errors import ModeMismatch
from nodalcover.field import MatrixK
from nodalcover.groups import FPWord, cyclic_group
from nodalcover.reps import ContinuousRep, trivial_rep
from nodalcover.stratified import (
    K_RELATIVE,
    S_RELATIVE,
    fdiv_from_rep,
    hom_fdiv,
    tensor_fdiv,
)

from helpers import (
    F3,
    random_tensor_pair,
    rank1_rep,
    rank2_rep,
    sig_with_pres,
    tensor_certificate_oracle,
)

Z2 = cyclic_group(2)


def unit_datum(mode=S_RELATIVE):
    sig, pres = sig_with_pres(1, (Z2,))
    return fdiv_from_rep(trivial_rep(pres, F3, (Z2,)), mode)


# -- constancy ------------------------------------------------------------------

def test_trivial_rep_gives_unit_datum():
    d = unit_datum()
    assert d.generator.rank == 1
    assert d.generator.twist(FPWord(d.generator.sig, ())).is_identity()


# -- transport ---------------------------------------------------------------------
# The base-relative mode keeps a constant matrix M across a layer; the
# field-relative mode takes it to `M.frobenius()`.

def test_transport_modes_on_identity():
    I = MatrixK.identity(F3, 2)
    assert I.frobenius() == I


def test_transport_k_mode_is_entrywise_power():
    M = MatrixK.from_rows(F3, [["t"]])
    assert M.frobenius() == MatrixK.from_rows(F3, [["t^3"]])


def test_transport_multiplicative():
    A = MatrixK.from_rows(F3, [["t", "1"], ["0", "1"]])
    B = MatrixK.from_rows(F3, [["1", "t^2"], ["2", "1"]])
    assert (A * B).frobenius() == A.frobenius() * B.frobenius()


def test_unknown_mode_rejected():
    with pytest.raises(ModeMismatch):
        fdiv_from_rep(rank1_rep(), "X")


# -- morphism chains -----------------------------------------------------------------

def test_s_relative_homs_equal_plain_twisted_homs():
    for rep in (rank1_rep(), rank2_rep()):
        d = fdiv_from_rep(rep, S_RELATIVE)
        hb = hom_fdiv(d, d)
        assert hb.scalar_field == "K"
        assert hb.dimension == len(hom_cocycle(datum_from_rep(rep), datum_from_rep(rep)))


def test_k_relative_unit_end_is_prime_field():
    hb = hom_fdiv(unit_datum(K_RELATIVE), unit_datum(K_RELATIVE))
    assert hb.dimension == 1
    assert hb.scalar_field == "F_3"
    entry = hb.basis[0].entries[0][0]
    assert entry.den == (1,) and len(entry.num) <= 1  # a constant


def test_k_relative_solutions_are_frobenius_fixed_intertwiners():
    rep = rank2_rep()
    d = fdiv_from_rep(rep, K_RELATIVE)
    hb = hom_fdiv(d, d)
    gens = [datum_from_rep(rep).letter_twist((0, 1)),
            datum_from_rep(rep).letter_twist((1, 1))]
    for f in hb.basis:
        assert f.frobenius() == f
        for A in gens:
            assert A * f == f * A


def conjugated_rank2_rep():
    """z -> P diag(t, 1) P^-1 with P = [[1, 0], [t, 1]], trivial Z2 factor."""
    sig, pres = sig_with_pres(1, (Z2,))
    P = MatrixK.from_rows(F3, [["1", "0"], ["t", "1"]])
    z = P * MatrixK.from_rows(F3, [["t", "0"], ["0", "1"]]) * P.inverse()
    I = MatrixK.identity(F3, 2)
    return ContinuousRep.build(pres, F3, [z], (Z2,), ((I, I),))


@pytest.mark.parametrize("rep, dim", [
    (trivial_rep(sig_with_pres(1, (Z2,))[1], F3, (Z2,), rank=2), 4),
    (conjugated_rank2_rep(), 1),
], ids=["unit-rank2", "conjugated-diag"])
def test_k_relative_homs_match_brute_force_fixed_combinations(rep, dim):
    # every F_p combination of the K-basis that Frobenius fixes, by brute force
    d = fdiv_from_rep(rep, K_RELATIVE)
    basis = hom_cocycle(d.generator, d.generator)
    zero = MatrixK.zeros(F3, 2, 2)

    def combination(coeffs, mats):
        acc = zero
        for c, B in zip(coeffs, mats):
            acc = acc + B.scale(F3.from_int(c))
        return acc

    fixed = set()
    for coeffs in itertools.product(range(3), repeat=len(basis)):
        f = combination(coeffs, basis)
        if f.frobenius() == f:
            fixed.add(f)
    hb = hom_fdiv(d, d)
    assert hb.dimension == dim
    assert len(fixed) == 3 ** hb.dimension
    span = {combination(coeffs, hb.basis)
            for coeffs in itertools.product(range(3), repeat=hb.dimension)}
    assert span == fixed


def test_k_relative_distinct_rank_one_data_have_no_homs():
    sig, pres = sig_with_pres(1, (Z2,))
    one = MatrixK.identity(F3, 1)
    a = ContinuousRep.build(pres, F3, [MatrixK.from_rows(F3, [["t"]])], (Z2,),
                            ((one, one),))
    b = ContinuousRep.build(pres, F3, [MatrixK.from_rows(F3, [["t + 1"]])], (Z2,),
                            ((one, one),))
    hb = hom_fdiv(fdiv_from_rep(a, K_RELATIVE), fdiv_from_rep(b, K_RELATIVE))
    assert hb.dimension == 0


def test_mode_mismatch_rejected():
    with pytest.raises(ModeMismatch):
        hom_fdiv(unit_datum(S_RELATIVE), unit_datum(K_RELATIVE))


# -- tensor ---------------------------------------------------------------------------

def test_tensor_with_unit():
    d = fdiv_from_rep(rank2_rep())
    u = fdiv_from_rep(trivial_rep(rank2_rep().presentation, F3, (Z2,)))
    out, cert = tensor_fdiv(d, u)
    assert cert.passed
    assert out.generator.rank == 2


def test_tensor_ranks_multiply_and_certificate():
    d1 = fdiv_from_rep(rank2_rep())
    d2 = fdiv_from_rep(rank1_rep())
    out, cert = tensor_fdiv(d1, d2)
    assert out.generator.rank == 2
    assert cert.passed and cert.generators_checked >= 2


def test_tensor_associative_rank():
    d1 = fdiv_from_rep(rank1_rep())
    a, _ = tensor_fdiv(*[d1, d1])
    b, _ = tensor_fdiv(a, d1)
    c, _ = tensor_fdiv(d1, a)
    assert b.generator.rank == c.generator.rank == 1
    # rank-one data multiply commutatively: the twists agree on generators
    assert b.generator.letter_twist((0, 1)) == c.generator.letter_twist((0, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_tensor_certificate_equals_the_all_letters_oracle(seed):
    """Proving the factor letters gives the certificate that comparing every
    letter against the rebuilt refined group gives, count included."""
    d1, d2 = (fdiv_from_rep(rep) for rep in random_tensor_pair(random.Random(seed)))
    out, cert = tensor_fdiv(d1, d2)
    assert cert.passed
    assert cert == tensor_certificate_oracle(d1, d2, out)
