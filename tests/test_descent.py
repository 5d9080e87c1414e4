"""Twist data: composition law, morphisms, integral transport, inflation collapse."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from nodalcover import descent, field, reps
from nodalcover.covering import canonical_component
from nodalcover.descent import (
    CorruptedCocycle,
    FiniteCocycle,
    LatticeAssignment,
    check_cocycle,
    conj_equivariance_check,
    datum_from_rep,
    descend_inflation,
    det_valuation_conserved,
    hom_cocycle,
    integralize,
    is_unimodular_matrix,
)
from nodalcover.errors import (
    EquivarianceViolation,
    KernelNotTrivial,
    ScopeMismatch,
    SignatureMismatch,
)
from nodalcover.field import MatrixK, smith_exponents
from nodalcover.groups import (
    FPSignature,
    FPWord,
    _concat,
    cyclic_group,
    enumerate_words,
    fp_normalize,
)
from nodalcover.reps import ContinuousRep, FiniteQuotientRep, inflate, intertwiners, trivial_rep

from helpers import (
    F3,
    gen_length,
    rank1_rep,
    rank2_rep,
    random_word,
    s3_rep_2dim,
    sig_with_pres,
)

Z2 = cyclic_group(2)


# -- the twist and its law -----------------------------------------------------

def test_trivial_rep_gives_identity_twists():
    sig, pres = sig_with_pres(1, (Z2,))
    datum = datum_from_rep(trivial_rep(pres, F3, (Z2,)))
    rng = random.Random(97)
    for _ in range(20):
        assert datum.twist(random_word(rng, datum.sig, 4)).is_identity()


def test_rank_one_twist_inverts_the_exponent():
    rep = rank1_rep()  # z -> t
    datum = datum_from_rep(rep)
    sig = rep.sig
    t = F3.t()
    for k in range(-3, 4):
        w = fp_normalize(sig, [(0, k)])
        assert datum.twist(w).entries[0][0] == t ** (-k)


def test_anti_composition_on_random_pairs():
    rep = rank2_rep()
    datum = datum_from_rep(rep)
    sig = rep.sig
    rng = random.Random(101)
    for _ in range(500):
        u = random_word(rng, sig, 3)
        v = random_word(rng, sig, 3)
        assert datum.twist(v) * datum.twist(u) == datum.twist(u * v)


def test_check_cocycle_passes_and_has_identity():
    datum = datum_from_rep(rank2_rep())
    cert = check_cocycle(datum, 4)
    assert cert.passed and cert.identity_ok
    assert cert.pairs_checked > 0
    with pytest.raises(ValueError):
        check_cocycle(datum, 0)


def test_laurent_twists_check_without_gcd(monkeypatch):
    # z -> [[t,1],[0,1]] has det t, so every twist entry is a Laurent polynomial
    sig, pres = sig_with_pres(1, (Z2,))
    rep = ContinuousRep.build(
        pres, F3, [MatrixK.from_rows(F3, [["t", "1"], ["0", "1"]])], (Z2,),
        ((MatrixK.identity(F3, 2), MatrixK.from_rows(F3, [["0", "1"], ["1", "0"]])),))
    datum = datum_from_rep(rep)
    calls = []
    pgcd = field._pgcd

    def counted(*args):
        calls.append(args)
        return pgcd(*args)

    monkeypatch.setattr(field, "_pgcd", counted)
    cert = check_cocycle(datum, 4)
    assert cert.passed
    # 2 relations and the recurrence of the 42 words of length 2 to 4
    assert cert.pairs_checked == 44
    assert len(calls) == 0


TWIST_ENTRIES = ["0", "1", "2", "t", "t + 1", "(1)/(t)", "(t + 2)/(t^2 + 1)"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_twist_memo_matches_word_evaluation(data):
    r = data.draw(st.integers(1, 2))
    rank = data.draw(st.integers(1, 2))
    sig, pres = sig_with_pres(r, (Z2,))
    square = st.lists(st.lists(st.sampled_from(TWIST_ENTRIES), min_size=rank,
                               max_size=rank), min_size=rank, max_size=rank)
    z_images = [MatrixK.from_rows(F3, data.draw(square)) for _ in range(r)]
    assume(all(not z.det().is_zero() for z in z_images))
    ident = MatrixK.identity(F3, rank)
    involutions = [ident, ident.scale(F3.from_int(-1))]
    if rank == 2:
        involutions.append(MatrixK.from_rows(F3, [["0", "1"], ["1", "0"]]))
    sign = data.draw(st.sampled_from(involutions))
    rep = ContinuousRep.build(pres, F3, z_images, (Z2,), ((ident, sign),))
    # words of generator length <= 4, asked with their prefixes in a random
    # order, so a word is sometimes asked before the prefixes it extends
    letter = st.tuples(st.integers(0, r - 1), st.sampled_from([1, -1])) | st.tuples(
        st.just(r), st.just(1))
    words = [fp_normalize(sig, raw)
             for raw in data.draw(st.lists(st.lists(letter, max_size=4), max_size=5))]
    queries = {w.letters: w for w in words}
    for w in words:
        for k in range(len(w.letters)):
            queries.setdefault(w.letters[:k], FPWord(sig, w.letters[:k]))
    datum = datum_from_rep(rep)
    for w in data.draw(st.permutations(list(queries.values()))):
        assert datum.twist(w) == rep.eval(w.inv())
    with pytest.raises(SignatureMismatch):
        datum.twist(fp_normalize(FPSignature(r + 1, (Z2,)), [(r, 1)]))


def test_integralize_computes_each_lattice_once(monkeypatch):
    rep = rank2_rep()
    datum = datum_from_rep(rep).restricted()
    hermite_calls = []
    eval_calls = []
    asked = set()
    hermite = descent.lattice_hermite
    eval_word = reps.eval_word
    lattice_of = LatticeAssignment.lattice_of

    def counted_hermite(M):
        hermite_calls.append(M)
        return hermite(M)

    def counted_eval(*args):
        eval_calls.append(args)
        return eval_word(*args)

    def recorded_lattice_of(self, c):
        asked.add(c)
        return lattice_of(self, c)

    monkeypatch.setattr(descent, "lattice_hermite", counted_hermite)
    monkeypatch.setattr(reps, "eval_word", counted_eval)
    monkeypatch.setattr(LatticeAssignment, "lattice_of", recorded_lattice_of)
    assignment = integralize(datum, max_len=3)
    kernel = [w for w in enumerate_words(rep.sig, 3, "ker_alpha") if not w.is_identity()]
    # one Hermite form per distinct component asked, plus the independent
    # check of each (orbit representative, kernel word) pair
    assert len(eval_calls) == 0
    assert len(hermite_calls) == len(asked) + len(assignment.orbit_reps) * len(kernel)


def test_corrupted_generator_fails_with_witness():
    rep = rank2_rep()
    datum = datum_from_rep(rep)
    bad = CorruptedCocycle(datum, fp_normalize(rep.sig, [(0, 1)]),
                           MatrixK.from_rows(F3, [["1", "1"], ["1", "0"]]))
    cert = check_cocycle(bad, 3)
    assert not cert.passed and cert.witness is not None


def test_certificate_over_1706_words_passes_and_catches_corruption():
    # 1,706 words over Z^{*2}*[Z2] at L=5: 2.9 million pairs for the oracle
    rep = rank1_rep(r=2)
    datum = datum_from_rep(rep)
    cert = check_cocycle(datum, 5)
    assert cert.strategy == "presentation"
    assert cert.passed and cert.identity_ok and cert.witness is None
    bad = CorruptedCocycle(datum, fp_normalize(rep.sig, [(0, 1)]),
                           MatrixK.from_rows(F3, [["1"]]))
    bad_cert = check_cocycle(bad, 5)
    assert not bad_cert.passed and bad_cert.witness is not None


def all_pairs_law(c, max_len: int) -> bool:
    """Oracle: H(v) H(u) = H(u v) for every pair of words up to max_len, with
    the products read from the stored twists up to 2 * max_len."""
    sig = c.sig
    full_range = c.twist_map(2 * max_len)
    words = sorted((w for w in full_range if gen_length(sig.r, w) <= max_len),
                   key=lambda w: gen_length(sig.r, w))
    if not full_range[()].is_identity():
        return False
    return all(full_range[v] * full_range[u] == full_range[_concat(sig, u, v)]
               for u in words for v in words)


OVERRIDE_ENTRIES = ["0", "1", "2", "t", "(1)/(t)"]
CERTIFIED_REPS = {"Z^*1*[Z2]": rank2_rep, "Z^*2*[Z2]": lambda: rank1_rep(r=2),
                  "Z^*1*[S3]": s3_rep_2dim}


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_certificate_agrees_with_all_pairs_oracle(data):
    rep = CERTIFIED_REPS[data.draw(st.sampled_from(sorted(CERTIFIED_REPS)))]()
    L = data.draw(st.integers(1, 3))
    datum = datum_from_rep(rep)
    sig, n = rep.sig, rep.rank
    w = data.draw(st.sampled_from(enumerate_words(sig, L)))
    rows = data.draw(st.lists(st.lists(st.sampled_from(OVERRIDE_ENTRIES), min_size=n,
                                       max_size=n), min_size=n, max_size=n))
    M = MatrixK.from_rows(rep.field, rows)
    assume(M != datum.twist(w))
    bad = CorruptedCocycle(datum, w, M)
    passed = check_cocycle(bad, L).passed
    letter = w.letters[0] if len(w.letters) == 1 else None
    if (L == 1 and letter and letter[0] >= sig.r
            and sig.factor(letter[0] - sig.r).order == 2 and (M * M).is_identity()):
        # the stored words up to L carry another anti-homomorphism, one that
        # sends the involution to M; only the oracle reads the products past L
        assert passed and not all_pairs_law(bad, L)
    else:
        assert passed == all_pairs_law(bad, L)


def test_relations_only_double_fails_both_checks():
    # the twists follow the letter recurrence, but the Z2 letter goes to t,
    # whose square is not the identity
    sig, pres = sig_with_pres(1, (Z2,))
    one = MatrixK.identity(F3, 1)
    bogus = ContinuousRep(pres, F3, 1, (MatrixK.from_rows(F3, [["t"]]),), (Z2,),
                          ((one, MatrixK.from_rows(F3, [["t"]])),))
    datum = datum_from_rep(bogus)
    for L in (1, 3):
        cert = check_cocycle(datum, L)
        assert not cert.passed and cert.identity_ok
        assert cert.witness == ("g1:1", "g1:1")
        assert not all_pairs_law(datum, L)


def test_certificate_covers_words_up_to_max_len():
    rep = rank2_rep()
    datum = datum_from_rep(rep)
    for L in (1, 2, 3):
        w = next(w for w in enumerate_words(rep.sig, L + 1)
                 if gen_length(1, w.letters) == L + 1)
        bad = CorruptedCocycle(datum, w, datum.twist(w).scale(F3.t()))
        assert check_cocycle(bad, L).passed
        assert not check_cocycle(bad, L + 1).passed
        # the oracle reads the products of two words up to L, so twice as far
        assert not all_pairs_law(bad, L)
    # at L=1 the letters alone are stored: sending the Z2 letter to another
    # involution gives another anti-homomorphism there, caught from L=2 on
    g = fp_normalize(rep.sig, [(1, 1)])
    bad = CorruptedCocycle(datum, g, MatrixK.identity(F3, 2))
    assert check_cocycle(bad, 1).passed and not all_pairs_law(bad, 1)
    assert not check_cocycle(bad, 2).passed


def test_restricted_scope_passes_iff_full_does():
    rep = rank2_rep()
    full = check_cocycle(datum_from_rep(rep), 4)
    restricted = check_cocycle(datum_from_rep(rep).restricted(), 4)
    assert full.passed == restricted.passed is True
    assert restricted.scope == "kernel"


def test_convention_pinning_on_noncommutative_example():
    """The uninverted assignment u -> rho(u) violates the same composition law
    the twist satisfies, so the inversion in the twist is forced."""
    rep = s3_rep_2dim()
    sig = rep.sig
    found_mismatch = False
    words = enumerate_words(sig, 2)
    for u in words:
        for v in words:
            lhs = rep.eval(v) * rep.eval(u)
            rhs = rep.eval(u * v)
            if lhs != rhs:
                found_mismatch = True
                break
        if found_mismatch:
            break
    assert found_mismatch
    assert check_cocycle(datum_from_rep(rep), 3).passed


# -- morphisms --------------------------------------------------------------------

def test_hom_trivial_rank_one():
    sig, pres = sig_with_pres(1, (Z2,))
    unit = datum_from_rep(trivial_rep(pres, F3, (Z2,)))
    basis = hom_cocycle(unit, unit)
    assert len(basis) == 1


def test_hom_no_common_constituent():
    a = datum_from_rep(rank1_rep())  # z -> t with the sign character
    sig, pres = sig_with_pres(1, (Z2,))
    one = MatrixK.identity(F3, 1)
    b = datum_from_rep(ContinuousRep.build(
        pres, F3, [MatrixK.from_rows(F3, [["t + 1"]])], (Z2,), ((one, one),)))
    assert hom_cocycle(a, b) == []


def test_hom_end_contains_identity():
    rep = rank2_rep()
    datum = datum_from_rep(rep)
    basis = hom_cocycle(datum, datum)
    assert len(basis) == len(intertwiners(rep, rep))
    assert len(basis) >= 1


def test_hom_scope_mismatch():
    datum = datum_from_rep(rank2_rep())
    with pytest.raises(ScopeMismatch):
        hom_cocycle(datum, datum.restricted())


def test_hom_dimension_invariant_under_conjugation():
    rep = rank2_rep()
    P = MatrixK.from_rows(F3, [["1", "1"], ["0", "1"]])
    Pinv = P.inverse()
    conj = ContinuousRep.build(
        rep.presentation, F3,
        [P * rep.z_images[0] * Pinv],
        rep.factor_groups,
        ((MatrixK.identity(F3, 2), P * rep.factor_homs[0][1] * Pinv),))
    d1 = len(hom_cocycle(datum_from_rep(rep), datum_from_rep(rep)))
    d2 = len(hom_cocycle(datum_from_rep(conj), datum_from_rep(conj)))
    assert d1 == d2


def test_kernel_scope_hom_stabilizes():
    rep = rank1_rep()
    datum = datum_from_rep(rep).restricted()
    d3 = len(hom_cocycle(datum, datum, max_len=3))
    d4 = len(hom_cocycle(datum, datum, max_len=4))
    assert d3 == d4 == 1


# -- integral transport -----------------------------------------------------------------

def test_integral_twists_give_standard_lattices():
    rep = rank2_rep()  # both generator images lie in the valuation ring with unit determinant? z has det t
    sig, pres = sig_with_pres(1, (Z2,))
    swap = MatrixK.from_rows(F3, [["0", "1"], ["1", "0"]])
    unimod = ContinuousRep.build(
        pres, F3, [MatrixK.from_rows(F3, [["1", "t"], ["0", "1"]])],
        (Z2,), ((MatrixK.identity(F3, 2), swap),))
    assignment = integralize(datum_from_rep(unimod).restricted(), max_len=3)
    for c in assignment.components:
        assert assignment.lattice_of(c).basis.is_identity()


def test_rank_one_lattice_exponents_shift_along_orbit():
    field = F3
    sig, pres = sig_with_pres(1, (Z2,))
    one = MatrixK.identity(field, 1)
    neg = MatrixK.from_rows(field, [["2"]])
    rep = ContinuousRep.build(pres, field,
                              [MatrixK.from_rows(field, [["(1)/(t)"]])],  # twist of z is t
                              (Z2,), ((one, neg),))
    assignment = integralize(datum_from_rep(rep).restricted(), max_len=3)
    sig = rep.sig
    for k in range(-2, 3):
        c = canonical_component(sig, 0, fp_normalize(sig, [(0, k)]))
        assert assignment.lattice_of(c).diagonal_exponents == (k,)


def test_integral_twist_matrices_are_unimodular():
    rng = random.Random(103)
    rep = rank2_rep()
    assignment = integralize(datum_from_rep(rep).restricted(), max_len=3)
    kernel = [w for w in enumerate_words(rep.sig, 3, "ker_alpha") if not w.is_identity()]
    for _ in range(20):
        w = kernel[rng.randrange(len(kernel))]
        c = assignment.components[rng.randrange(len(assignment.components))]
        assert is_unimodular_matrix(assignment.integral_twist(w, c))


def test_det_valuation_conservation():
    rep = rank2_rep()
    assignment = integralize(datum_from_rep(rep).restricted(), max_len=3)
    for w in enumerate_words(rep.sig, 3, "ker_alpha"):
        if w.is_identity():
            continue
        for c in assignment.orbit_reps:
            assert det_valuation_conserved(assignment, w, c)


def test_change_of_representative_constant_relative_position():
    """Transporting from a different orbit representative shifts every lattice
    by one global integral isomorphism class: the relative elementary divisors
    of the two assignments are the same at every component."""
    rep = rank1_rep()
    datum = datum_from_rep(rep).restricted()
    a1 = integralize(datum, max_len=3)
    sig = rep.sig
    # second assignment: transport from a shifted representative by hand
    w0 = fp_normalize(sig, [(0, 1)])
    rel = None
    for c in a1.components:
        b1 = a1.lattice_of(c).basis
        b2 = datum.twist(a1.transport_word(c) * w0)  # lattice from the shifted origin
        from nodalcover.field import lattice_hermite
        b2 = lattice_hermite(b2).basis
        exps = smith_exponents(b1.inverse() * b2)
        if rel is None:
            rel = exps
        assert exps == rel


def test_integralize_needs_kernel_scope():
    with pytest.raises(ScopeMismatch):
        integralize(datum_from_rep(rank2_rep()), max_len=3)


# -- conjugation equivariance ----------------------------------------------------------

def test_equivariance_identity_and_factor_letter():
    sig, pres = sig_with_pres(1, (Z2,))
    unit = datum_from_rep(trivial_rep(pres, F3, (Z2,)))
    cert = conj_equivariance_check(unit, FPWord(unit.sig, ()), 3)
    assert cert.passed and cert.witness.is_identity()
    cert2 = conj_equivariance_check(unit, fp_normalize(unit.sig, [(1, 1)]), 3)
    assert cert2.passed


def test_equivariance_random_rank_two():
    rep = rank2_rep()
    datum = datum_from_rep(rep)
    rng = random.Random(107)
    for _ in range(5):
        g = random_word(rng, rep.sig, 3)
        cert = conj_equivariance_check(datum, g, 4)
        assert cert.passed
        assert cert.witness == datum.twist(g)


def test_equivariance_violation_detected():
    rep = rank2_rep()
    datum = datum_from_rep(rep)
    bad = CorruptedCocycle(datum, fp_normalize(rep.sig, [(0, 2)]),
                           MatrixK.from_rows(F3, [["1", "0"], ["1", "1"]]))
    g = fp_normalize(rep.sig, [(1, 1)])
    with pytest.raises(EquivarianceViolation):
        conj_equivariance_check(bad, g, 4)


# -- collapse to the finite quotient ------------------------------------------------------

def _sign_fq():
    sig, pres = sig_with_pres(1, (Z2,))
    return FiniteQuotientRep.build(
        pres, F3, (Z2,), Z2, [1], [(0, 1)],
        (MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])))


def test_descend_trivial():
    from nodalcover.groups import trivial_group

    sig, pres = sig_with_pres(1, (Z2,))
    triv = trivial_group()
    fq = FiniteQuotientRep.build(pres, F3, (Z2,), triv, [0], [(0, 0)],
                                 (MatrixK.identity(F3, 1),))
    fin = descend_inflation(datum_from_rep(inflate(fq, pres)), fq, 4)
    assert fin.mats[0].is_identity()
    assert fin.check_law()


def test_descend_sign_rep():
    fq = _sign_fq()
    fin = descend_inflation(datum_from_rep(inflate(fq, fq.presentation)), fq, 5)
    assert fin.mats[0].is_identity()
    assert fin.mats[1] == MatrixK.from_rows(F3, [["2"]])
    assert fin.words_checked == 94  # all normal forms of generator length <= 5


def test_descend_rejects_non_inflated_datum():
    fq = _sign_fq()
    rep = rank1_rep()  # z acts by t: the twist is not constant on fibers
    with pytest.raises(KernelNotTrivial):
        descend_inflation(datum_from_rep(rep), fq, 4)


def test_finite_cocycle_law_check():
    fq = _sign_fq()
    fin = descend_inflation(datum_from_rep(inflate(fq, fq.presentation)), fq, 4)
    broken = FiniteCocycle(fin.group, fin.field, fin.rank,
                           (fin.mats[1], fin.mats[1]))
    assert not broken.check_law()
