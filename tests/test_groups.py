"""Free-product normal forms, the direct-product quotient, enumeration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nodalcover.errors import BadElementIndex, BadFactorIndex, SignatureMismatch
from nodalcover.groups import (
    DirectTuple,
    FPSignature,
    FPWord,
    _alpha_tuple,
    _concat,
    _inv_letters,
    _normalize_letters,
    alpha,
    cyclic_group,
    dihedral_group,
    enumerate_words,
    format_word,
    fp_mul,
    fp_normalize,
    iter_words_raw,
    kernel_words,
    parse_word,
    product_subgroup,
    shortlex_key,
    symmetric_group,
    trivial_group,
)

from helpers import gen_length, random_word

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group(3)
SIG = FPSignature(2, (Z2, Z3))


# -- finite groups ------------------------------------------------------------

def test_group_constructors():
    assert Z3.order == 3 and Z3.identity == 0 and Z3.inv(1) == 2
    assert S3.order == 6 and not S3.is_abelian()
    assert dihedral_group(4).order == 8
    assert trivial_group().order == 1


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        # constant table: no identity
        cyclic_group(2).from_table(((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        # non-associative magma on three points
        from nodalcover.groups import FiniteGroup
        FiniteGroup.from_table(((0, 1, 2), (1, 2, 0), (2, 1, 0)))


def test_product_subgroup_diagonal_and_mixed():
    diag, elems = product_subgroup(Z2, Z2, [(1, 1)])
    assert diag.order == 2 and set(elems) == {(0, 0), (1, 1)}
    Z4 = cyclic_group(4)
    mixed, elems4 = product_subgroup(Z4, Z2, [(1, 1)])
    assert mixed.order == 4
    assert (1, 1) in elems4 and (2, 0) in elems4


# -- normalization --------------------------------------------------------------

def test_cancellation_examples():
    assert fp_normalize(SIG, [(0, 1), (0, -1)]).is_identity()
    g = 1
    assert fp_normalize(SIG, [(2, g), (2, Z2.inv(g))]).is_identity()
    w = fp_normalize(SIG, [(3, 1), (3, 2)])
    assert w.is_identity()  # the order-three elements 1 and 2 are inverse


def test_normalization_idempotent_on_random_sequences():
    rng = random.Random(17)
    for _ in range(200):
        raw = []
        for _ in range(20):
            fid = rng.randrange(4)
            if fid < 2:
                raw.append((fid, rng.randint(-2, 2)))
            else:
                G = SIG.factor(fid - 2)
                raw.append((fid, rng.randrange(G.order)))
        w = fp_normalize(SIG, raw)
        assert fp_normalize(SIG, w.letters) == w
        # no adjacent same-factor letters, no identity letters survive
        for (a, b) in zip(w.letters, w.letters[1:]):
            assert a[0] != b[0]
        for fid, v in w.letters:
            if fid < 2:
                assert v != 0
            else:
                assert v != SIG.factor(fid - 2).identity


def test_normal_form_uniqueness_under_insert_cancel():
    rng = random.Random(19)
    for _ in range(100):
        w = random_word(rng, SIG, 5)
        raw = list(w.letters)
        pos = rng.randint(0, len(raw))
        fid = rng.randrange(4)
        if fid < 2:
            e = rng.choice([-2, -1, 1, 2])
            noise = [(fid, e), (fid, -e)]
        else:
            G = SIG.factor(fid - 2)
            g = rng.randrange(1, G.order)
            noise = [(fid, g), (fid, G.inv(g))]
        perturbed = raw[:pos] + noise + raw[pos:]
        assert fp_normalize(SIG, perturbed) == w


def test_bad_indices_raise():
    with pytest.raises(BadFactorIndex):
        fp_normalize(SIG, [(9, 1)])
    with pytest.raises(BadElementIndex):
        fp_normalize(SIG, [(2, 5)])


# -- multiplication ---------------------------------------------------------------

def test_identity_law_and_conjugate_inverse():
    rng = random.Random(23)
    e = FPWord(SIG, ())
    for _ in range(20):
        w = random_word(rng, SIG, 4)
        assert fp_mul(w, e) == w and fp_mul(e, w) == w
    g = fp_normalize(SIG, [(2, 1)])
    z = fp_normalize(SIG, [(0, 1)])
    conj = z * g * z.inv()
    assert (conj * (z * g.inv() * z.inv())).is_identity()


def test_associativity_oracle():
    rng = random.Random(29)
    for _ in range(500):
        w1, w2, w3 = (random_word(rng, SIG, rng.randint(0, 5)) for _ in range(3))
        assert fp_mul(fp_mul(w1, w2), w3) == fp_mul(w1, fp_mul(w2, w3))


raw_letters = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 1), st.integers(-2, 2)),
        st.tuples(st.just(2), st.integers(0, 1)),
        st.tuples(st.just(3), st.integers(0, 2)),
    ),
    max_size=12)


@settings(max_examples=200, deadline=None)
@given(raw_letters, raw_letters)
def test_normalize_is_a_monoid_morphism_on_raw_sequences(a, b):
    # normalizing a concatenation equals multiplying the normalizations
    assert fp_normalize(SIG, list(a) + list(b)) == \
        fp_mul(fp_normalize(SIG, a), fp_normalize(SIG, b))


@settings(max_examples=200, deadline=None)
@given(raw_letters)
def test_inverse_from_reversed_negated_raw(a):
    w = fp_normalize(SIG, a)
    manual = fp_normalize(SIG, [
        (fid, -v) if fid < 2 else (fid, SIG.factor(fid - 2).inv(v))
        for fid, v in reversed(list(a))])
    assert manual == w.inv()
    assert fp_mul(w, manual).is_identity()


def test_signature_mismatch():
    other = FPSignature(1, (Z2,))
    with pytest.raises(SignatureMismatch):
        fp_mul(FPWord(SIG, ()), FPWord(other, ()))


# -- the quotient onto the direct product ------------------------------------------

def test_alpha_kills_z_letters():
    w = fp_normalize(SIG, [(0, 3), (1, -2), (0, 1)])
    assert alpha(w).is_identity()


def test_alpha_commutator_of_distinct_factors():
    g1 = fp_normalize(SIG, [(2, 1)])
    g2 = fp_normalize(SIG, [(3, 1)])
    comm = g1 * g2 * g1.inv() * g2.inv()
    assert not comm.is_identity()
    assert alpha(comm).is_identity()


def test_alpha_homomorphism_oracle():
    rng = random.Random(31)
    for _ in range(300):
        w1, w2 = random_word(rng, SIG, 4), random_word(rng, SIG, 4)
        assert alpha(w1 * w2) == alpha(w1) * alpha(w2)


def test_direct_tuple_ops():
    t1 = DirectTuple(SIG, (1, 2))
    assert (t1 * t1.inv()).is_identity()


# -- enumeration ----------------------------------------------------------------------

def test_enumerate_length_zero():
    assert enumerate_words(SIG, 0) == [FPWord(SIG, ())]


def test_enumerate_free_rank_one():
    sig = FPSignature(1, ())
    words = enumerate_words(sig, 2)
    assert len(words) == 5
    assert [str(w) for w in words] == ["e", "z1", "z1^-1", "z1^2", "z1^-2"]


def test_enumerate_is_shortlex_sorted_and_complete():
    words = enumerate_words(SIG, 3)
    keys = [shortlex_key(SIG, w.letters) for w in words]
    assert keys == sorted(keys)
    assert len(set(words)) == len(words)
    # every word of generator length <= 2 multiplied by a generator stays inside
    gens = [fp_normalize(SIG, [(0, 1)]), fp_normalize(SIG, [(2, 1)]),
            fp_normalize(SIG, [(3, 2)])]
    seen = set(w.letters for w in words)
    for w in words:
        if gen_length(SIG.r, w.letters) <= 2:
            for g in gens:
                assert (w * g).letters in seen


def test_kernel_filter_postcondition():
    words = list(kernel_words(SIG, 4))
    assert words
    for w in words:
        assert alpha(w).is_identity() and not w.is_identity()


def test_section_witnesses_alpha_surjectivity():
    # sigma(g) is a word of at most N letters mapping onto the tuple g
    from nodalcover.covering import sigma_word

    rng = random.Random(109)
    for _ in range(50):
        coords = (rng.randrange(Z2.order), rng.randrange(Z3.order))
        w = sigma_word(SIG, coords)
        assert alpha(w).coords == coords
        assert gen_length(SIG.r, w.letters) <= SIG.num_factors


def test_syllable_vs_generator_length():
    w = fp_normalize(SIG, [(0, 3), (2, 1)])
    assert len(w) == 2
    assert gen_length(SIG.r, w.letters) == 4


# -- compiled kernels against the general path ---------------------------------------

signatures = st.tuples(
    st.integers(0, 2),
    st.lists(st.sampled_from([Z2, Z3, cyclic_group(4), S3]), max_size=3),
).filter(lambda t: t[0] or t[1]).map(lambda t: FPSignature(t[0], tuple(t[1])))


def raw_words(sig, max_size=8):
    def letter(fid):
        if fid < sig.r:
            return st.tuples(st.just(fid), st.integers(-3, 3))
        return st.tuples(st.just(fid), st.integers(0, sig.factor(fid - sig.r).order - 1))

    return st.lists(st.integers(0, sig.r + sig.num_factors - 1).flatmap(letter),
                    max_size=max_size)


def nonidentity_values(sig, fid):
    if fid < sig.r:
        return [-3, -2, -1, 1, 2, 3]
    return sig.factor(fid - sig.r).nonidentity()


@st.composite
def junction_pairs(draw):
    """Normal forms a, b whose junction cancels fully, cancels partly, merges
    into a non-identity letter, or does not touch."""
    sig = draw(signatures)
    a = _normalize_letters(sig, draw(raw_words(sig)))
    mode = draw(st.sampled_from(["cancel", "partial", "merge", "free"]))
    k = 0 if mode == "free" else draw(st.integers(min(1, len(a)), len(a)))
    head = _inv_letters(sig, a[len(a) - k:])  # cancels the last k letters of a
    meets = a[len(a) - k - 1] if k < len(a) else None  # a's letter after the cancellation
    tail = []
    if mode == "merge" and meets is not None:
        fid, v = meets
        inv = -v if fid < sig.r else sig.factor(fid - sig.r).inv(v)
        merging = [x for x in nonidentity_values(sig, fid) if x != inv]
        if merging:  # an order-two factor only cancels
            tail = [(fid, draw(st.sampled_from(merging)))]
    elif mode == "partial":
        blocked = {letter[0] for letter in (meets, head[-1] if head else None) if letter}
        fids = [f for f in range(sig.r + sig.num_factors) if f not in blocked]
        if fids:
            fid = draw(st.sampled_from(fids))
            tail = [(fid, draw(st.sampled_from(nonidentity_values(sig, fid))))]
    elif mode == "free":
        tail = draw(raw_words(sig, 4))
    return sig, a, _normalize_letters(sig, list(head) + tail)


def alpha_oracle(sig, letters):
    coords = []
    for j in range(sig.num_factors):
        G = sig.factor(j)
        x = G.identity
        for fid, v in letters:
            if fid == sig.r + j:
                x = G.mul(x, v)
        coords.append(x)
    return tuple(coords)


@settings(max_examples=200, deadline=None)
@given(junction_pairs())
def test_concat_equals_normalized_concatenation(case):
    sig, a, b = case
    assert _concat(sig, a, b) == _normalize_letters(sig, a + b)
    assert _concat(sig, b, a) == _normalize_letters(sig, b + a)


@settings(max_examples=100, deadline=None)
@given(junction_pairs())
def test_inverse_letters_cancel_under_concat(case):
    sig, a, b = case
    for w in (a, b, _concat(sig, a, b)):
        inv = _inv_letters(sig, w)
        assert _concat(sig, w, inv) == () and _concat(sig, inv, w) == ()
        assert _normalize_letters(sig, inv) == inv


@settings(max_examples=100, deadline=None)
@given(junction_pairs(), st.data())
def test_alpha_tuple_equals_factorwise_oracle(case, data):
    sig, a, b = case
    raw = data.draw(raw_words(sig))
    assert _alpha_tuple(sig, raw) == alpha_oracle(sig, raw)
    assert _alpha_tuple(sig, _concat(sig, a, b)) == alpha_oracle(sig, a + b)


small_signatures = st.tuples(
    st.integers(0, 2), st.lists(st.sampled_from([Z2, Z3, S3]), max_size=2),
).filter(lambda t: t[0] or t[1]).map(lambda t: FPSignature(t[0], tuple(t[1])))


@settings(max_examples=60, deadline=None)
@given(small_signatures, st.integers(0, 3))
def test_sorted_grades_are_shortlex_sorted_enumeration(sig, L):
    unsorted = list(iter_words_raw(sig, L, sorted_grades=False))
    words = [letters for letters, _, _ in unsorted]
    ordered = [letters for letters, _, _ in iter_words_raw(sig, L)]
    assert ordered == sorted(words, key=lambda w: shortlex_key(sig, w))
    assert len(set(words)) == len(words)
    for letters, al, _ in unsorted:
        assert _normalize_letters(sig, letters) == letters
        assert al == alpha_oracle(sig, letters)
    # unit products of words below the top grade normalize into the enumeration
    seen = set(words)
    units = [(i, d) for i in range(sig.r) for d in (1, -1)]
    units += [(sig.r + j, g) for j in range(sig.num_factors)
              for g in sig.factor(j).nonidentity()]
    for w in words:
        if gen_length(sig.r, w) < L:
            for x in units:
                product = _concat(sig, w, (x,))
                assert product == _normalize_letters(sig, w + (x,)) and product in seen


@settings(max_examples=30, deadline=None)
@given(signatures, st.integers(0, 4))
def test_kernel_words_are_the_filtered_enumeration(sig, L):
    expected = [w for w in enumerate_words(sig, L)
                if w.letters and alpha(w).is_identity()]
    assert list(kernel_words(sig, L)) == expected


# -- strings -------------------------------------------------------------------------

def test_word_string_roundtrip():
    rng = random.Random(37)
    for _ in range(50):
        w = random_word(rng, SIG, 4)
        assert parse_word(SIG, format_word(w)) == w
    assert format_word(FPWord(SIG, ())) == "e"
    assert parse_word(SIG, "z1^2 * g1:1 * z2^-1").letters == ((0, 2), (2, 1), (1, -1))
