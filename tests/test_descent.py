"""Twist data: composition law, morphisms, integral transport, inflation collapse."""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from nodalcover import covering, descent, field, groups, reps
from nodalcover import io as spec_io
from nodalcover.covering import ComponentIndex, component_action
from nodalcover.descent import (
    CorruptedCocycle,
    FiniteCocycle,
    LatticeAssignment,
    check_cocycle,
    datum_from_rep,
    descend_inflation,
    det_valuation_conserved,
    hom_cocycle,
    integralize,
)
from nodalcover.errors import (
    KernelNotTrivial,
    NodalCoverError,
    ScopeMismatch,
    SignatureMismatch,
)
from nodalcover.field import FunctionField, MatrixK
from nodalcover.groups import (
    FPSignature,
    FPWord,
    _concat,
    _inv_letters,
    cyclic_group,
    enumerate_words,
    fp_normalize,
    kernel_words,
    symmetric_group,
    trivial_group,
)
from nodalcover.reps import (
    ContinuousRep,
    FiniteQuotientRep,
    hom_from_generator_images,
    inflate,
    trivial_rep,
)

from helpers import (
    F3,
    F7,
    append_walk,
    descend_inflation_oracle,
    det_oracle,
    det_valuation_conserved_oracle,
    eval_word,
    gen_length,
    integralize_pair_oracle,
    intertwiners,
    is_unimodular_matrix,
    kernel_hom_oracle,
    lattice_hermite_oracle,
    random_matrix,
    rank1_rep,
    rank2_rep,
    random_word,
    s3_rep_2dim,
    sig_with_pres,
    smith_exponents,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def kernel_oracle(sig, max_len):
    """Nonidentity words up to max_len in the kernel of alpha, filtered here."""
    return [w for w in enumerate_words(sig, max_len)
            if not w.is_identity() and w.alpha_coords == sig.identity_tuple()]


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
    for k in range(-3, 4):
        w = fp_normalize(sig, [(0, k)])
        assert datum.twist(w).entries[0][0] == F3.t_power(-k)


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


def test_laurent_hom_solves_with_at_most_two_gcds(monkeypatch):
    """A rank-3 Laurent rep (monomial * diag(t, 1, 1/t) * unipotent, the
    shape the cocycle benchmark builds): its hom system has a constant or
    monomial pivot in each column, so the solve stays in F_p and Laurent
    arithmetic.  Eliminating on the first nonzero pivot took 332 gcds."""
    sig, pres = sig_with_pres(1, (Z2,))
    monomial, diag, unipotent, swap = (MatrixK.from_rows(F3, rows) for rows in (
        [["0", "0", "2"], ["0", "1", "0"], ["1", "0", "0"]],
        [["t", "0", "0"], ["0", "1", "0"], ["0", "0", "(1)/(t)"]],
        [["1", "1", "0"], ["0", "1", "2"], ["0", "0", "1"]],
        [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]))
    z = monomial * diag * unipotent
    rep = ContinuousRep.build(pres, F3, [z], (Z2,), ((MatrixK.identity(F3, 3), swap),))
    datum = datum_from_rep(rep)
    calls = []
    pgcd = field._pgcd

    def counted(*args):
        calls.append(args)
        return pgcd(*args)

    monkeypatch.setattr(field, "_pgcd", counted)
    assert len(hom_cocycle(datum, datum)) >= 1
    assert len(calls) <= 2


def test_polynomial_determinants_up_to_2x2_run_no_gcd(monkeypatch):
    """Bareiss divides by no pivot up to 2 x 2, so the determinants of
    polynomial matrices, as `z_det_valuations` takes of polynomial Z images,
    stay in F_p[t].  Inverting each pivot, as the oracle does, takes gcds."""
    rng = random.Random(39)
    mats = [MatrixK(F, tuple(tuple(F.rf(tuple(rng.randrange(F.p) for _ in range(3)))
                                   for _ in range(n)) for _ in range(n)))
            for F in (FunctionField(2), F3, F7) for n in (1, 2) for _ in range(20)]
    sig, pres = sig_with_pres(1, (Z2,))
    z = MatrixK.from_rows(F3, [["t + 1", "2"], ["t^2", "t + 2"]])
    rep = ContinuousRep.build(pres, F3, [z], (Z2,), ((MatrixK.identity(F3, 2),) * 2,))
    calls = []
    pgcd = field._pgcd

    def counted(*args):
        calls.append(args)
        return pgcd(*args)

    monkeypatch.setattr(field, "_pgcd", counted)
    dets = [M.det() for M in mats]
    assert rep.z_det_valuations == (0,)
    assert len(calls) == 0
    assert dets == [det_oracle(M) for M in mats]
    assert len(calls) > 0


TWIST_ENTRIES = ["0", "1", "2", "t", "t + 1", "(1)/(t)", "(t + 2)/(t^2 + 1)"]


def draw_rep(data):
    """A rank-1 or rank-2 rep over Z^{*r} * [Z2], r = 1 or 2, with Z images
    from TWIST_ENTRIES and an involution for the Z2 letter."""
    r = data.draw(st.integers(1, 2))
    rank = data.draw(st.integers(1, 2))
    sig, pres = sig_with_pres(r, (Z2,))
    square = st.lists(st.lists(st.sampled_from(TWIST_ENTRIES), min_size=rank,
                               max_size=rank), min_size=rank, max_size=rank)
    z_images = [MatrixK.from_rows(F3, data.draw(square)) for _ in range(r)]
    assume(all(not z.det().is_zero() for z in z_images))
    ident = MatrixK.identity(F3, rank)
    involutions = [ident, ident.scale(F3.rf(-1))]
    if rank == 2:
        involutions.append(MatrixK.from_rows(F3, [["0", "1"], ["1", "0"]]))
    sign = data.draw(st.sampled_from(involutions))
    return ContinuousRep.build(pres, F3, z_images, (Z2,), ((ident, sign),))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_twist_memo_matches_word_evaluation(data):
    rep = draw_rep(data)
    sig, r = rep.sig, rep.sig.r
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
        assert datum.twist(w) == eval_word(rep, w.inv())
    with pytest.raises(SignatureMismatch):
        datum.twist(fp_normalize(FPSignature(r + 1, (Z2,)), [(r, 1)]))


def test_an_equal_signature_built_apart_is_accepted_and_another_refused():
    """`FPSignature.__eq__` answers at once for the same object, and still
    compares by value: words and components over an equal signature built
    apart compare equal and pass every signature check, and a signature
    with other factors is refused."""
    rep = rank1_rep()
    sig = rep.sig
    twin = FPSignature(sig.r, (cyclic_group(2),))
    other = FPSignature(sig.r, (cyclic_group(3),))
    assert twin is not sig and twin == sig and not twin != sig and hash(twin) == hash(sig)
    assert other != sig and not other == sig
    letters = ((0, 1), (1, 1))
    w, w_twin = FPWord(sig, letters), FPWord(twin, letters)
    c, c_twin = ComponentIndex(0, sig, letters), ComponentIndex(0, twin, letters)
    assert w_twin == w and c_twin == c
    assert (w_twin * w).letters == (w * w).letters
    assert component_action(w_twin, c) == component_action(w, c_twin) == component_action(w, c)
    datum = datum_from_rep(rep)
    assert datum.twist(w_twin) == datum.twist(w)
    assert datum.det_valuation(w_twin) == datum.det_valuation(w)
    dom = covering.fundamental_domain(sig, FPWord(sig, ((0, 1),)))
    assert covering.cover_witness(dom, c_twin) == covering.cover_witness(dom, c)
    assignment = integralize(datum.restricted(), max_len=2)
    assert assignment.transport_word(c_twin) == assignment.transport_word(c)
    assert assignment.lattice_of(c_twin) == assignment.lattice_of(c)
    w_other, c_other = FPWord(other, ((0, 1),)), ComponentIndex(0, other, ())
    # the lattice under c_other's (j, letters) is memoised, and still refused
    assert assignment.lattice_of(ComponentIndex(0, sig, ())).basis.is_identity()
    # z2 over Z^*2 * [Z2] has the letters of g1:1 over Z^*1 * [Z2]
    c_rank = ComponentIndex(0, FPSignature(sig.r + 1, (cyclic_group(2),)), ((1, 1),))
    for refused in (lambda: w * w_other, lambda: component_action(w_other, c),
                    lambda: component_action(w, c_other), lambda: datum.twist(w_other),
                    lambda: datum.det_valuation(w_other),
                    lambda: covering.cover_witness(dom, c_other),
                    lambda: assignment.transport_word(c_other),
                    lambda: assignment.lattice_of(c_other),
                    lambda: assignment.transport_word(c_rank),
                    lambda: assignment.lattice_of(c_rank)):
        with pytest.raises(SignatureMismatch):
            refused()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_twist_map_matches_the_prefix_memo(data):
    """twist_map builds H(a x) = H(x) H(a) from the front letter and `twist`
    builds H(u a) = H(a) H(u) from the longest memoised prefix: opposite
    recurrences that must give the same matrix on every word."""
    rep = draw_rep(data)
    datum = datum_from_rep(rep)
    H = datum.twist_map(data.draw(st.integers(0, 3)))
    for letters, mat in H.items():
        assert mat == datum.twist(FPWord(rep.sig, letters))


def test_integralize_computes_each_lattice_once(monkeypatch):
    rep = rank2_rep()
    datum = datum_from_rep(rep).restricted()
    hermite_calls = []
    eval_calls = []
    asked = set()
    hermite = descent.lattice_hermite
    rep_eval_word = reps.eval_word
    lattice_of = LatticeAssignment.lattice_of

    def counted_hermite(M):
        hermite_calls.append(M)
        return hermite(M)

    def counted_eval(*args):
        eval_calls.append(args)
        return rep_eval_word(*args)

    def recorded_lattice_of(self, c):
        asked.add(c)
        return lattice_of(self, c)

    monkeypatch.setattr(descent, "lattice_hermite", counted_hermite)
    monkeypatch.setattr(reps, "eval_word", counted_eval)
    monkeypatch.setattr(LatticeAssignment, "lattice_of", recorded_lattice_of)
    assignment = integralize(datum, max_len=3)
    # building the assignment computes no lattice; asking each component
    # twice computes one Hermite form per component
    assert (asked, hermite_calls) == (set(), [])
    for c in assignment.components * 2:
        assignment.lattice_of(c)
    assert len(eval_calls) == 0
    assert asked == set(assignment.components)
    assert len(hermite_calls) == len(asked)


def test_lattice_layer_does_no_euclid(monkeypatch):
    """The Hermite forms of H(w) over the demo rank-2 rep's kernel words of
    length <= 4 take no polynomial gcd and no polynomial division; the
    RationalFunction oracle needs both on the same bases."""
    rep = spec_io.load_rep(DATA / "rank2_rep.json")
    datum = datum_from_rep(rep)
    twists = [datum.twist(w) for w in kernel_words(rep.sig, 4)]
    calls = Counter()
    for name in ("_pgcd", "_pdivmod"):
        def counted(*args, name=name, kernel=getattr(field, name)):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(field, name, counted)
    forms = [field.lattice_hermite(H) for H in twists]
    assert calls == Counter()
    assert len({sum(L.diagonal_exponents) for L in forms}) > 1
    assert [lattice_hermite_oracle(H) for H in twists] == forms
    assert calls["_pgcd"] > 0 and calls["_pdivmod"] > 0


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_letter_twist_matches_the_inverse_letter_oracle(data):
    rep = draw_rep(data)
    sig, r = rep.sig, rep.sig.r
    datum = datum_from_rep(rep)
    z_letter = st.tuples(st.integers(0, r - 1), st.integers(1, 4) | st.integers(-4, -1))
    for letter in data.draw(st.lists(z_letter | st.just((r, 1)), min_size=1, max_size=6)):
        oracle = eval_word(rep, FPWord(sig, (letter,)).inv())
        assert datum.letter_twist(letter) == oracle


def r2_rank2_rep():
    sig, pres = sig_with_pres(2, (Z2,))
    z1 = MatrixK.from_rows(F3, [["t", "1"], ["0", "1"]])
    z2 = MatrixK.from_rows(F3, [["1", "0"], ["t + 1", "t"]])
    swap = MatrixK.from_rows(F3, [["0", "1"], ["1", "0"]])
    return ContinuousRep.build(pres, F3, [z1, z2], (Z2,),
                               ((MatrixK.identity(F3, 2), swap),))


def count_products(monkeypatch) -> list:
    """Count `MatrixK` products from here on, in the returned one-item list."""
    count = [0]
    mul = MatrixK.__mul__

    def counted(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(MatrixK, "__mul__", counted)
    return count


def test_twist_of_a_cold_word_takes_no_product_with_the_identity(monkeypatch):
    """A word of n unit letters with no memoised prefix but () costs n - 1
    products: its first letter's twist starts it, not H(()) = 1."""
    rep = r2_rank2_rep()
    sig = rep.sig
    words = [letters for letters, _, _ in groups.iter_words_raw(sig, 4)
             if all(abs(v) == 1 for _, v in letters)]
    count = count_products(monkeypatch)
    for letters in words:
        datum = datum_from_rep(rep)
        count[0] = 0
        got = datum.twist(FPWord(sig, letters))
        assert count[0] == max(len(letters) - 1, 0)
        assert got == eval_word(rep, FPWord(sig, letters).inv())
    assert max(map(len, words)) == 4


def test_twist_map_takes_one_product_per_word_past_grade_one(monkeypatch):
    """Grade 0 is the identity and grade 1 the letter twists, with no
    product; every word of generator length >= 2 costs one."""
    rep = r2_rank2_rep()
    count = count_products(monkeypatch)
    for L in range(5):
        count[0] = 0
        H = datum_from_rep(rep).twist_map(L)
        assert count[0] == sum(gen_length(rep.sig.r, w) >= 2 for w in H)
        assert H[()].is_identity()


@pytest.mark.parametrize("sign", [1, -1])
def test_z_powers_build_on_memoised_powers(monkeypatch, sign):
    """z^2, z^3, z^4 asked in increasing order cost one product each, and a
    cold z^v costs no more than square-and-multiply: z^4 at most two."""
    rep = r2_rank2_rep()
    count = count_products(monkeypatch)
    datum = datum_from_rep(rep)
    got = {}
    for v in (2, 3, 4):
        count[0] = 0
        got[v] = datum.letter_twist((1, sign * v))
        assert count[0] == 1
    cold = {}
    for v in range(2, 10):
        count[0] = 0
        cold[v] = datum_from_rep(rep).letter_twist((1, sign * v))
        assert count[0] <= v.bit_length() + bin(v).count("1") - 2
    monkeypatch.undo()
    for v, mat in cold.items():
        assert mat == eval_word(rep, FPWord(rep.sig, ((1, sign * v),)).inv())
        assert got.get(v, mat) == mat


def test_integralize_and_kernel_hom_invert_only_lattice_bases(monkeypatch):
    """The rep inverts its Z images once, when it is built; after that
    `integralize` and both hom solves invert nothing: the transport check
    reads one Hermite form per orbit representative and never builds
    `integral_twist`, whose destination-basis inverse was once made per
    (orbit representative, kernel word) pair, 56 at r = 2, L = 3."""
    rep = r2_rank2_rep()
    calls = []
    inverse = MatrixK.inverse

    def counted(M):
        calls.append(M)
        return inverse(M)

    monkeypatch.setattr(MatrixK, "inverse", counted)
    datum = datum_from_rep(rep).restricted()
    assignment = integralize(datum, 3)
    assert len(hom_cocycle(datum, datum_from_rep(rep).restricted())) >= 1
    assert len(hom_cocycle(datum_from_rep(rep), datum_from_rep(rep))) >= 1
    assert len(assignment.orbit_reps) * len(kernel_oracle(rep.sig, 3)) == 56
    assert calls == []


def test_integralize_and_kernel_hom_enumerate_once_per_word_set(monkeypatch):
    """integralize lists the components (one enumeration) and checks its
    orbit representatives without listing kernel words; kernel-scope
    hom_cocycle solves on the free basis of ker alpha and lists no words."""
    calls = []
    original = groups.iter_words_raw

    def counted(sig, max_len, *args, **kwargs):
        calls.append(max_len)
        return original(sig, max_len, *args, **kwargs)

    for module in (groups, covering, descent):
        monkeypatch.setattr(module, "iter_words_raw", counted)
    datum = datum_from_rep(rank2_rep()).restricted()
    integralize(datum, max_len=4)
    assert calls == [4]
    calls.clear()
    assert len(hom_cocycle(datum, datum)) >= 1
    assert calls == []


def test_corrupted_identity_twist_fails_the_identity_check():
    """H(()) = t I is the one corruption that would make `integralize`'s
    orbit representatives carry a nonstandard lattice; `check_cocycle` is
    where it is caught."""
    rep = rank2_rep()
    bad = CorruptedCocycle(datum_from_rep(rep), FPWord(rep.sig, ()),
                           MatrixK.identity(F3, 2).scale(F3.t_power(1)))
    cert = check_cocycle(bad, 3)
    assert not cert.identity_ok
    assert not cert.passed


def test_corrupted_generator_fails_with_witness():
    rep = rank2_rep()
    datum = datum_from_rep(rep)
    bad = CorruptedCocycle(datum, fp_normalize(rep.sig, [(0, 1)]),
                           MatrixK.from_rows(F3, [["1", "1"], ["1", "0"]]))
    cert = check_cocycle(bad, 3)
    assert not cert.passed and cert.witness is not None


def test_corrupted_control_is_the_datum_with_one_word_overridden():
    """The control is a datum: its own members serve it, and it differs from
    the datum it corrupts at the override word's twist alone."""
    rep = rank2_rep()
    datum = datum_from_rep(rep).restricted()
    z1 = FPWord(rep.sig, ((0, 1),))
    M = datum.twist(z1).scale(F3.t_power(1))
    bad = CorruptedCocycle(datum, z1, M)
    assert isinstance(bad, descent.MeromorphicCocycle)
    assert (bad.scope, bad.sig, bad.field, bad.rank) == \
        (datum.scope, datum.sig, datum.field, datum.rank)
    for w in enumerate_words(rep.sig, 3):
        assert bad.twist(w) == (M if w.letters == z1.letters else datum.twist(w))
        assert bad.det_valuation(w) == datum.det_valuation(w)
    H, bad_H = datum.twist_map(3), bad.twist_map(3)
    assert H.keys() == bad_H.keys()
    assert [w for w in H if H[w] != bad_H[w]] == [z1.letters]


def test_certificate_over_1706_words_passes_and_catches_corruption():
    # 1,706 words over Z^{*2}*[Z2] at L=5: 2.9 million pairs for the oracle
    rep = rank1_rep(r=2)
    datum = datum_from_rep(rep)
    cert = check_cocycle(datum, 5)
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
    bogus = ContinuousRep(pres, (MatrixK.from_rows(F3, [["t"]]),), (Z2,),
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
        bad = CorruptedCocycle(datum, w, datum.twist(w).scale(F3.t_power(1)))
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
    kernel_datum = datum_from_rep(rep).restricted()
    full = check_cocycle(datum_from_rep(rep), 4)
    restricted = check_cocycle(kernel_datum, 4)
    assert full.passed == restricted.passed is True
    assert kernel_datum.scope == "kernel"


def test_convention_pinning_on_noncommutative_example():
    """The uninverted assignment u -> rho(u) violates the same composition law
    the twist satisfies, so the inversion in the twist is forced."""
    rep = s3_rep_2dim()
    sig = rep.sig
    found_mismatch = False
    words = enumerate_words(sig, 2)
    for u in words:
        for v in words:
            lhs = eval_word(rep, v) * eval_word(rep, u)
            rhs = eval_word(rep, u * v)
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


def _random_involution(rng, F, n):
    """P diag(+-1) P^-1 for a random invertible P over K: a Z2 image."""
    P = random_matrix(rng, F, n, invertible=True)
    signs = MatrixK(F, tuple(tuple(F.rf(rng.choice((1, -1)) if i == j else 0)
                                   for j in range(n)) for i in range(n)))
    return P * signs * P.inverse()


def _random_rep(rng, F, pres, n):
    z = random_matrix(rng, F, n, invertible=True)
    return ContinuousRep.build(pres, F, [z], (Z2,),
                               ((MatrixK.identity(F, n), _random_involution(rng, F, n)),))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from((3, 5, 7)),
       n1=st.integers(1, 2), n2=st.integers(1, 2), conjugate=st.booleans())
def test_full_scope_hom_equals_the_intertwiner_oracle(seed, p, n1, n2, conjugate):
    """Full-scope `hom_cocycle` solves Hom from the letter twists H = rho^-1;
    the oracle solves it from rho on the generators.  Same space, same RREF
    basis.  A conjugate pair makes Hom nonzero."""
    rng = random.Random(seed)
    F = FunctionField(p)
    sig, pres = sig_with_pres(1, (Z2,))
    r1 = _random_rep(rng, F, pres, n1)
    if conjugate:
        P = random_matrix(rng, F, n1, invertible=True)
        Pinv = P.inverse()
        r2 = ContinuousRep.build(pres, F, [P * r1.z_images[0] * Pinv], (Z2,),
                                 (tuple(P * m * Pinv for m in r1.factor_homs[0]),))
    else:
        r2 = _random_rep(rng, F, pres, n2)
    for a, b in ((r1, r2), (r1, r1), (r2, r2)):
        assert hom_cocycle(datum_from_rep(a), datum_from_rep(b)) == intertwiners(a, b)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_full_scope_hom_equals_the_oracle_on_trivial_reps(rank):
    sig, pres = sig_with_pres(1, (Z2,))
    unit = trivial_rep(pres, F3, (Z2,), rank)
    basis = hom_cocycle(datum_from_rep(unit), datum_from_rep(unit))
    assert len(basis) == rank * rank
    assert basis == intertwiners(unit, unit)


def test_full_scope_hom_equals_the_oracle_on_the_inflated_s3_rep():
    S3 = symmetric_group(3)
    F7 = FunctionField(7)
    sig, pres = sig_with_pres(1, (S3,))
    swap = MatrixK.from_rows(F7, [["0", "1"], ["1", "0"]])
    rot = MatrixK.from_rows(F7, [["0", "6"], ["1", "6"]])
    hom = hom_from_generator_images(F7, S3, [swap, rot], 2)
    fq = FiniteQuotientRep.build(pres, F7, (S3,), S3, [S3.generators[0]],
                                 [tuple(range(6))], hom)
    rep = inflate(fq, pres)
    basis = hom_cocycle(datum_from_rep(rep), datum_from_rep(rep))
    assert len(basis) == 1
    assert basis == intertwiners(rep, rep)


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
    """The free basis words of ker alpha have length <= 2N + 1 = 3, so the
    truncated systems at L = 3 and 4 give the basis words' solution."""
    rep = rank1_rep()
    datum = datum_from_rep(rep).restricted()
    basis = hom_cocycle(datum, datum)
    assert len(basis) == 1
    assert basis == kernel_hom_oracle(datum, datum, 3) == kernel_hom_oracle(datum, datum, 4)


@st.composite
def kernel_hom_pairs(draw):
    """Two reps of rank 1 or 2 over F_3 or F_7 of Z * [Z2] or Z * [Z2, Z3]:
    random Z images (constant or of degree 1), Z2 by an involution and Z3 by
    an element of order dividing 3; the second rep is sometimes the first."""
    field = draw(st.sampled_from([F3, F7]))
    groups = draw(st.sampled_from([(Z2,), (Z2, Z3)]))
    _, pres = sig_with_pres(1, groups)
    rng = random.Random(draw(st.integers(0, 10**6)))

    def const(rows):
        return MatrixK(field, tuple(tuple(field.rf(x) for x in row) for row in rows))

    def rep(n):
        z = random_matrix(rng, field, n, deg=draw(st.integers(0, 1)), invertible=True)
        ident = MatrixK.identity(field, n)
        if n == 1:
            involutions, order3 = [ident, const([[-1]])], [ident]
            if field.p == 7:
                order3.append(const([[2]]))
        else:
            involutions = [ident, const([[-1, 0], [0, -1]]), const([[0, 1], [1, 0]])]
            order3 = [ident, const([[0, -1], [1, -1]])]
        homs = [(ident, draw(st.sampled_from(involutions)))]
        if len(groups) == 2:
            homs.append(hom_from_generator_images(field, Z3, [draw(st.sampled_from(order3))], n))
        return ContinuousRep.build(pres, field, [z], groups, tuple(homs))

    first = rep(draw(st.integers(1, 2)))
    second = first if draw(st.booleans()) else rep(draw(st.integers(1, 2)))
    return first, second


@settings(max_examples=30, deadline=None)
@given(kernel_hom_pairs())
def test_kernel_scope_hom_equals_the_truncated_oracle(pair):
    """Kernel-scope Hom from the Schreier generators is the truncated solve
    over every kernel word up to their length bound 2N + 1."""
    a, b = pair
    c1, c2 = datum_from_rep(a).restricted(), datum_from_rep(b).restricted()
    L = 2 * a.sig.num_factors + 1
    assert hom_cocycle(c1, c2) == kernel_hom_oracle(c1, c2, L)


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
        c = ComponentIndex(0, sig, fp_normalize(sig, [(0, k)]).letters)
        assert assignment.lattice_of(c).diagonal_exponents == (k,)


def test_integral_twist_matrices_are_unimodular():
    rng = random.Random(103)
    rep = rank2_rep()
    assignment = integralize(datum_from_rep(rep).restricted(), max_len=3)
    kernel = kernel_oracle(rep.sig, 3)
    for _ in range(20):
        w = kernel[rng.randrange(len(kernel))]
        c = assignment.components[rng.randrange(len(assignment.components))]
        assert is_unimodular_matrix(assignment.integral_twist(w, c))


@st.composite
def transport_reps(draw):
    """A random rank-2 rep over F_3 with r = 1 or 2 Z images in GL_2(F_3(t))
    and a two-element factor acting by the swap or trivially."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    r = draw(st.integers(1, 2))
    sig, pres = sig_with_pres(r, (Z2,))
    zs = [random_matrix(rng, F3, 2, deg=1, invertible=True) for _ in range(r)]
    g = draw(st.sampled_from([MatrixK.identity(F3, 2),
                              MatrixK.from_rows(F3, [["0", "1"], ["1", "0"]])]))
    return ContinuousRep.build(pres, F3, zs, (Z2,), ((MatrixK.identity(F3, 2), g),))


@settings(max_examples=25, deadline=None)
@given(transport_reps())
def test_lattice_check_implies_unimodular_twists(rep):
    """Every basis change `integralize`'s docstring proves integral is
    unimodular, without `integralize` building one."""
    assignment = integralize(datum_from_rep(rep).restricted(), max_len=3)
    for c0 in assignment.orbit_reps:
        for w in kernel_oracle(rep.sig, 3):
            assert is_unimodular_matrix(assignment.integral_twist(w, c0))


@st.composite
def two_factor_transport_reps(draw):
    """A random rank-2 rep over F_3 of Z * [Z2, Z3]: Z to GL_2(F_3(t)), Z2 by
    the swap, Z3 by a unipotent matrix of order 3."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    Z3 = cyclic_group(3)
    sig, pres = sig_with_pres(1, (Z2, Z3))
    z = random_matrix(rng, F3, 2, deg=1, invertible=True)
    ident = MatrixK.identity(F3, 2)
    swap = MatrixK.from_rows(F3, [["0", "1"], ["1", "0"]])
    rot = MatrixK.from_rows(F3, [["0", "2"], ["1", "2"]])
    return ContinuousRep.build(pres, F3, [z], (Z2, Z3), (
        (ident, swap), hom_from_generator_images(F3, Z3, [rot], 2)))


@settings(max_examples=20, deadline=None)
@given(transport_reps() | two_factor_transport_reps(), st.data())
def test_standard_lattice_check_agrees_with_the_per_pair_oracle(rep, data):
    """Each kernel word is its own transport word from an orbit representative,
    and the per-pair check passes, as `integralize`'s docstring proves:
    untouched, and with a nonempty kernel word's twist overridden (both sides
    of each pair change alike)."""
    sig = rep.sig
    datum = datum_from_rep(rep).restricted()
    kernel = list(kernel_words(sig, 3))
    assignment = integralize(datum, 3)
    for c0 in assignment.orbit_reps:
        for w in kernel:
            assert assignment.transport_word(component_action(w, c0)).letters == w.letters
    assert all(assignment.transport_word(c).alpha_coords == sig.identity_tuple()
               for c in assignment.components)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    M = random_matrix(rng, F3, 2, deg=1, invertible=True)
    at_word = CorruptedCocycle(datum, data.draw(st.sampled_from(kernel)), M)
    for c in (datum, at_word):
        integralize_pair_oracle(c, 3)


def test_det_valuation_conservation():
    rep = rank2_rep()
    assignment = integralize(datum_from_rep(rep).restricted(), max_len=3)
    for w in kernel_oracle(rep.sig, 3):
        for c in assignment.orbit_reps:
            assert det_valuation_conserved(assignment, w, c)


@st.composite
def lattice_reps(draw, den_kind):
    """A rep over F_3 of rank 1 to 3 on Z^{*r} * [Z2] or Z * [Z2, Z3], r = 1
    or 2, whose Z images have entries 0 or t^v e, v in [-1, 1]: e is a
    nonzero constant ("monomial"), a polynomial a ("laurent") or a/b
    ("general"), a and b of degree <= 1 with nonzero constant terms.  Z2
    acts by the sign or a swap of two coordinates, Z3 by a constant matrix
    of order 3 or by 1 + t^-1 E_12."""
    n = draw(st.integers(1, 3))
    factors = draw(st.sampled_from([(Z2,), (Z2, Z3)] if n > 1 else [(Z2,)]))
    sig, pres = sig_with_pres(draw(st.integers(1, 3 - len(factors))), factors)

    def unit_poly():
        return (draw(st.integers(1, 2)), draw(st.integers(0, 2)))

    def entry():
        if not draw(st.integers(0, 4)):
            return F3.zero()
        if den_kind == "monomial":
            e = F3.rf(draw(st.integers(1, 2)))
        else:
            e = F3.rf(unit_poly()) if den_kind == "laurent" else F3.rf(unit_poly(), unit_poly())
        return e * F3.t_power(draw(st.integers(-1, 1)))

    zs = [MatrixK(F3, tuple(tuple(entry() for _ in range(n)) for _ in range(n)))
          for _ in range(sig.r)]
    assume(all(not z.det().is_zero() for z in zs))
    ident = MatrixK.identity(F3, n)
    swap = MatrixK(F3, tuple(tuple(F3.one() if {i, j} == {0, 1} or i == j > 1 else F3.zero()
                                   for j in range(n)) for i in range(n)))
    homs = [(ident, draw(st.sampled_from([ident, ident.scale(F3.rf(-1)), swap][:n + 1])))]
    if len(factors) > 1:
        rot = (MatrixK.from_rows(F3, [["0", "2"], ["1", "2"]]) if n == 2 else
               MatrixK(F3, tuple(tuple(F3.one() if j == (i + 1) % 3 else F3.zero()
                                       for j in range(3)) for i in range(3))))
        # 1 + t^-1 E_12 has order p = 3 and lies outside GL_n(A)
        unipotent = MatrixK(F3, tuple(tuple(F3.t_power(-1) if (i, j) == (0, 1) else e
                                            for j, e in enumerate(row))
                                      for i, row in enumerate(ident.entries)))
        rot = draw(st.sampled_from([rot, unipotent]))
        homs.append(hom_from_generator_images(F3, Z3, [rot], n))
    return ContinuousRep.build(pres, F3, zs, factors, homs)


def check_lattices_against_fresh_hermite_forms(rep, order):
    """Ask every component of `integralize(rep, 3)` in `order` (indices into
    the components, each asked twice) and compare `transport_word` with the
    word c0^{-1} g c built by word products, and `lattice_of` with a fresh
    Hermite form of its twist from a cocycle with no memoised twists."""
    sig = rep.sig
    assignment = integralize(datum_from_rep(rep).restricted(), 3)
    fresh = datum_from_rep(rep).restricted()
    reps_by_key = {descent._orbit_key(c0): c0 for c0 in assignment.orbit_reps}
    for k in order(2 * len(assignment.components)):
        c = assignment.components[k % len(assignment.components)]
        c0 = reps_by_key[descent._orbit_key(c)]
        G = sig.factor(c.j)
        g = G.table[c0.alpha_coords[c.j]][G.inverse[c.alpha_coords[c.j]]]
        w = c0.rep.inv() * fp_normalize(sig, [(sig.r + c.j, g)]) * c.rep
        assert assignment.transport_word(c) == w
        assert assignment.lattice_of(c) == field.lattice_hermite(fresh.twist(w))
    return assignment


@pytest.mark.parametrize("den_kind", ["monomial", "laurent", "general"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_lattice_of_equals_a_fresh_hermite_form_of_the_transport_twist(den_kind, data):
    """`transport_word` reads the orbit table kept per key, and `lattice_of`
    memoises under (j, letters): both agree with the general path at every
    component, asked in a random order."""
    rep = data.draw(lattice_reps(den_kind))
    check_lattices_against_fresh_hermite_forms(
        rep, lambda n: data.draw(st.permutations(range(n))))


def test_lattice_of_tells_the_factors_of_equal_letters_apart():
    """Over Z * [Z2, Z3] with Z3 acting by 1 + t^-1 E_12, outside GL_2(A),
    some letters name components over both factors whose lattices differ,
    so a memo keyed by the letters alone would return the wrong one."""
    sig, pres = sig_with_pres(1, (Z2, Z3))
    ident = MatrixK.identity(F3, 2)
    rep = ContinuousRep.build(
        pres, F3, [MatrixK.from_rows(F3, [["t + 1", "1"], ["1", "2"]])], (Z2, Z3),
        ((ident, MatrixK.from_rows(F3, [["0", "1"], ["1", "0"]])),
         hom_from_generator_images(F3, Z3, [MatrixK.from_rows(F3, [["1", "(1)/(t)"],
                                                                   ["0", "1"]])], 2)))
    for order in (range, lambda n: reversed(range(n))):
        assignment = check_lattices_against_fresh_hermite_forms(rep, order)
    by_letters = {}
    for c in assignment.components:
        by_letters.setdefault(c.letters, set()).add(assignment.lattice_of(c))
    assert any(len(lattices) > 1 for lattices in by_letters.values())


@settings(max_examples=15, deadline=None)
@given(transport_reps() | two_factor_transport_reps())
def test_det_valuation_letter_sum_equals_the_determinant(rep):
    """v(det H(w)) read off the Z letters equals the valuation of the
    eliminated determinant for every word of length <= 4, finite letters
    included."""
    datum = datum_from_rep(rep)
    for w in enumerate_words(rep.sig, 4):
        assert datum.det_valuation(w) == datum.twist(w).det().valuation()


@settings(max_examples=15, deadline=None)
@given(transport_reps() | two_factor_transport_reps())
def test_det_valuation_conserved_equals_the_per_word_oracle(rep):
    assignment = integralize(datum_from_rep(rep).restricted(), max_len=3)
    for c0 in assignment.orbit_reps:
        for w in kernel_words(rep.sig, 3):
            assert (det_valuation_conserved(assignment, w, c0)
                    == det_valuation_conserved_oracle(assignment, w, c0))


def test_det_valuation_conserved_fails_on_a_corrupted_lattice():
    """Scaling H(z1) by t moves the lattice at c0 z1 by t A^2 but leaves the
    letters of z1 alone: the letter sum misses the Hermite diagonal by the
    rank.  The per-word determinant of the overridden twist would not."""
    rep = rank2_rep()
    datum = datum_from_rep(rep).restricted()
    z1 = FPWord(rep.sig, ((0, 1),))
    bad = CorruptedCocycle(datum, z1, datum.twist(z1).scale(F3.t_power(1)))
    assignment = integralize(bad, 3)
    for c0 in assignment.orbit_reps:
        assert not det_valuation_conserved(assignment, z1, c0)
        assert det_valuation_conserved_oracle(assignment, z1, c0)


def test_det_valuation_conserved_takes_one_det_per_z_image(monkeypatch):
    """Over the kernel words of length <= 3 at each orbit representative, the
    checks take at most one determinant per Z image in all, not one per word."""
    rep = rank2_rep()
    assignment = integralize(datum_from_rep(rep).restricted(), max_len=3)
    kernel = list(kernel_words(rep.sig, 3))
    calls = Counter()

    def counted(self, det=MatrixK.det):
        calls["det"] += 1
        return det(self)

    monkeypatch.setattr(MatrixK, "det", counted)
    assert len(kernel) == 8
    for c0 in assignment.orbit_reps:
        for w in kernel:
            assert det_valuation_conserved(assignment, w, c0)
    assert calls["det"] <= rep.sig.r


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

class EquivarianceViolation(AssertionError):
    pass


def conj_equivariance_check(c, g: FPWord, max_len: int):
    """Oracle for the equivariance of the twist under conjugation: the
    conjugated assignment u -> H(g^{-1} u g) is again a kernel cocycle,
    intertwined with the original by H(g), checked as the matrix identity
    H(g^{-1} u g) H(g) = H(g) H(u) over the enumerated kernel words, the
    identity included.  Returns (words checked, H(g))."""
    sig = c.sig
    hg = c.twist(g)
    g_inv = _inv_letters(sig, g.letters)
    checked = 0
    for u in enumerate_words(sig, max_len):
        if u.alpha_coords != sig.identity_tuple():
            continue
        conj = _concat(sig, _concat(sig, g_inv, u.letters), g.letters)
        if c.twist(FPWord(sig, conj)) * hg != hg * c.twist(u):
            raise EquivarianceViolation(f"conjugation square failed at u={u}, g={g}")
        checked += 1
    return checked, hg


def test_equivariance_identity_and_factor_letter():
    sig, pres = sig_with_pres(1, (Z2,))
    unit = datum_from_rep(trivial_rep(pres, F3, (Z2,)))
    checked, witness = conj_equivariance_check(unit, FPWord(unit.sig, ()), 3)
    assert checked and witness.is_identity()
    checked2, _ = conj_equivariance_check(unit, fp_normalize(unit.sig, [(1, 1)]), 3)
    assert checked2


def test_equivariance_random_rank_two():
    rep = rank2_rep()
    datum = datum_from_rep(rep)
    rng = random.Random(107)
    for _ in range(5):
        g = random_word(rng, rep.sig, 3)
        checked, witness = conj_equivariance_check(datum, g, 4)
        assert checked
        assert witness == datum.twist(g)


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
    broken = FiniteCocycle(fin.group, (fin.mats[1], fin.mats[1]))
    assert not broken.check_law()


def test_finite_cocycle_law_check_past_the_identity():
    """Z3 data (1, 2, 4) over F_7 satisfies the law; (1, -1, 1) keeps the
    identity but breaks H(b) H(a) = H(ab) at (1,2)."""
    F7 = FunctionField(7)
    Z3 = cyclic_group(3)
    good = tuple(MatrixK.from_rows(F7, [[x]]) for x in ("1", "2", "4"))
    bad = tuple(MatrixK.from_rows(F7, [[x]]) for x in ("1", "6", "1"))
    assert FiniteCocycle(Z3, good).check_law()
    assert not FiniteCocycle(Z3, bad).check_law()


def test_descend_reports_a_fiber_out_of_reach():
    """A six-element quotient hit only through z: words up to length 2 reach
    z^-2 .. z^2, which misses the element 3."""
    F7 = FunctionField(7)
    Z6 = cyclic_group(6)
    sig, pres = sig_with_pres(1, (Z2,))
    # 3 is a primitive sixth root of unity mod 7
    hom = tuple(MatrixK(F7, ((F7.rf(3 ** k),),)) for k in range(6))
    fq = FiniteQuotientRep.build(pres, F7, (Z2,), Z6, [1], [(0, 0)], hom)
    datum = datum_from_rep(inflate(fq, pres))
    with pytest.raises(KernelNotTrivial) as exc:
        descend_inflation(datum, fq, 2)
    assert str(exc.value) == "enumeration bound too small: no preimage found for ['3']"
    fin = descend_inflation(datum, fq, 3)
    assert fin.mats == tuple(hom[-k % 6] for k in range(6))
    assert fin.words_checked == len(enumerate_words(sig, 3))


# -- the state walk against the per-word oracle --------------------------------------------

F13 = FunctionField(13)  # 12 = |F_13^*| is divisible by 2, 3 and 4
SOURCES = [Z2, cyclic_group(3), cyclic_group(4), symmetric_group(3)]
QUOTIENTS = [trivial_group(), Z2, cyclic_group(3), cyclic_group(4), symmetric_group(3)]
ROOTS = {1: 1, 2: 12, 3: 3, 4: 5}  # a primitive n-th root of unity mod 13


def group_homs(G, Q):
    """Every homomorphism G -> Q, as element maps, from the images of G's
    designated generators."""
    out = []
    for images in itertools.product(range(Q.order), repeat=len(G.generators)):
        mp = {G.identity: Q.identity}
        frontier = [G.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g, img in zip(G.generators, images):
                    y = G.table[x][g]
                    if y not in mp:
                        mp[y] = Q.table[mp[x]][img]
                        nxt.append(y)
            frontier = nxt
        if all(Q.table[mp[a]][mp[b]] == mp[G.table[a][b]] for a in mp for b in mp):
            out.append(tuple(mp[g] for g in range(G.order)))
    return out


def quotient_reps(Q):
    """Some matrix representations of Q over F_13."""
    if not Q.is_abelian():
        swap = MatrixK.from_rows(F13, [["0", "1"], ["1", "0"]])
        rot = MatrixK.from_rows(F13, [["0", "12"], ["1", "12"]])
        one, minus = MatrixK.identity(F13, 1), MatrixK(F13, ((F13.rf(-1),),))
        return [hom_from_generator_images(F13, Q, gens, n)
                for gens, n in (([swap, rot], 2), ([minus, one], 1), ([one, one], 1))]
    n = Q.order
    return [tuple(MatrixK(F13, ((F13.rf(ROOTS[n] ** (k * g)),),)) for g in range(n))
            for k in range(n)]


@st.composite
def quotient_data(draw, pres, groups, Q):
    """A surjection of the free product onto Q with a representation of Q,
    or None when the drawn images do not generate Q."""
    z_to = [draw(st.integers(0, Q.order - 1)) for _ in range(pres.r)]
    factor_to = [draw(st.sampled_from(group_homs(G, Q))) for G in groups]
    hom = draw(st.sampled_from(quotient_reps(Q)))
    try:
        return FiniteQuotientRep.build(pres, F13, groups, Q, z_to, factor_to, hom)
    except ValueError:
        return None


@st.composite
def collapse_cases(draw):
    r = draw(st.integers(0, 2))
    groups = tuple(draw(st.lists(st.sampled_from(SOURCES), min_size=1, max_size=2)))
    _, pres = sig_with_pres(r, groups)
    Q = draw(st.sampled_from(QUOTIENTS))
    fq = draw(quotient_data(pres, groups, Q))
    assume(fq is not None)
    kind = draw(st.sampled_from(["inflated", "other quotient data", "z acts by t"]))
    rep = inflate(fq, pres)
    if kind == "other quotient data":
        other = draw(quotient_data(pres, groups, Q))
        rep = inflate(other or fq, pres)
    elif kind == "z acts by t" and r:
        z1 = rep.z_images[0].scale(F13.t_power(1))
        rep = ContinuousRep.build(pres, F13, (z1,) + rep.z_images[1:],
                                  rep.factor_groups, rep.factor_homs)
    return datum_from_rep(rep), fq, draw(st.integers(0, 5))


def collapse_outcome(descend, datum, fq, max_len):
    try:
        fin = descend(datum, fq, max_len)
    except NodalCoverError as exc:
        return type(exc), str(exc)
    return fin.group, fin.mats, fin.words_checked


def first_word_edges(fq, max_len):
    """The (quotient element, letter) edges of the enumeration up to max_len,
    in the order of their first word."""
    G = fq.group

    def step(carry, letter):
        qv = carry[1]
        return (qv, letter), G.table[qv][fq.q_letter(letter)]

    edges = (edge for letters, _, (edge, _) in append_walk(
        fq.sig, max_len, carry_init=(None, G.identity), carry_step=step) if letters)
    return list(dict.fromkeys(edges))


@settings(max_examples=60, deadline=None)
@given(collapse_cases())
def test_descend_state_walk_equals_per_word_oracle(case):
    """Same verdict as the per-word collapse, with one step per edge taken
    in the order of the edge's first word.  The oracle's work grows with the
    number of normal forms, so each example is bounded at 20,000 of them."""
    datum, fq, max_len = case
    states = groups.iter_grade_states(fq.sig, max_len, None, lambda key, letter: None)
    assume(sum(sum(grade.values()) for grade in states) <= 20000)
    stepped = []

    def spy(sig, max_len, key_init, key_step):
        def step(key, letter):
            stepped.append((key, letter))
            return key_step(key, letter)
        return groups.iter_grade_states(sig, max_len, key_init, step)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(descent, "iter_grade_states", spy)
        outcome = collapse_outcome(descend_inflation, datum, fq, max_len)
    assert outcome == collapse_outcome(descend_inflation_oracle, datum, fq, max_len)
    expected = first_word_edges(fq, max_len)
    assert stepped == expected[:len(stepped)]
    if "not constant on the fiber" not in str(outcome[1]):  # the walk ran to the end
        assert stepped == expected
