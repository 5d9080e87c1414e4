"""Free-product normal forms, the direct-product quotient, enumeration."""

import itertools
import operator
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from nodalcover.covering import ComponentIndex, enumerate_components
from nodalcover.errors import BadElementIndex, BadFactorIndex, SignatureMismatch
from nodalcover.field import MatrixK
from nodalcover.groups import (
    FiniteGroup,
    FPSignature,
    FPWord,
    _alpha_tuple,
    _concat,
    _inv_letters,
    _normalize_letters,
    cyclic_group,
    dihedral_group,
    enumerate_words,
    first_kernel_word,
    format_word,
    fp_normalize,
    iter_grade_states,
    iter_words_raw,
    kernel_words,
    parse_word,
    product_subgroup,
    shortlex_key,
    symmetric_group,
    trivial_group,
)

from helpers import (
    F7,
    LOOP5,
    append_walk,
    associativity_failure,
    closure_oracle,
    extend_from_generators,
    format_word_oracle,
    gen_length,
    hom_failure_oracle,
    normalize_letters_oracle,
    product_subgroup_oracle,
    random_word,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group(3)
SIG = FPSignature(2, (Z2, Z3))


# -- finite groups ------------------------------------------------------------

def test_group_constructors():
    assert Z3.order == 3 and Z3.identity == 0 and Z3.inverse[1] == 2
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


def generated(table, identity, generators) -> bool:
    """Whether right multiplication by the generators reaches every element
    from the identity."""
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = [table[x][s] for x in frontier for s in generators
                    if table[x][s] not in seen]
        seen.update(frontier)
    return len(seen) == len(table)


def earlier_checks_pass(table, generators) -> bool:
    """The checks construction makes before associativity, written out
    independently: an identity, a two-sided inverse for every element, and
    generators that generate."""
    m = len(table)
    units = [e for e in range(m) if all(table[e][x] == x == table[x][e] for x in range(m))]
    if not units:
        return False
    e = units[0]
    return (all(any(table[x][y] == e == table[y][x] for y in range(m)) for x in range(m))
            and generated(table, e, generators))


def test_loop5_is_refused_under_every_generator_set():
    """LOOP5 has an identity and inverses but is not associative, so every
    generator set is refused: those that do not generate for that, and those
    that do by the generator-column test, which must catch it (see
    `FiniteGroup.__post_init__`)."""
    assert associativity_failure(LOOP5) == (1, 1)
    for k in range(6):
        for gens in itertools.combinations(range(5), k):
            reason = ("table is not associative" if generated(LOOP5, 0, gens)
                      else "designated generators do not generate the group")
            with pytest.raises(ValueError, match=f"^{reason}$"):
                FiniteGroup(LOOP5, tuple("01234"), "L5", gens)


@st.composite
def perturbed_tables(draw):
    """(table, generators): a small group's table or LOOP5 under a random
    labelling, with one entry overwritten half of the time, and a random
    generator tuple."""
    base = draw(st.sampled_from([G.table for G in SMALL_GROUPS] + [LOOP5]))
    m = len(base)
    perm = draw(st.permutations(range(m)))
    rows = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            rows[perm[a]][perm[b]] = perm[base[a][b]]
    if draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, m - 1))] = draw(st.integers(0, m - 1))
    gens = tuple(draw(st.lists(st.integers(0, m - 1), max_size=3)))
    return tuple(map(tuple, rows)), gens


@settings(max_examples=300, deadline=None)
@given(perturbed_tables())
def test_generator_column_test_agrees_with_the_all_pairs_oracle(case):
    """Construction refuses exactly the tables that the all-pairs
    associativity oracle or one of the earlier checks refuses."""
    table, gens = case
    try:
        FiniteGroup(table, tuple(map(str, range(len(table)))), "T", gens)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (earlier_checks_pass(table, gens)
                        and associativity_failure(table) is None)


def test_hom_failure_scans_rows_first():
    Z4 = cyclic_group(4)
    assert Z4.hom_failure(range(4), lambda x, y: Z4.table[x][y]) is None
    D4 = dihedral_group(4)  # generators 1 (a rotation) and 4 (a reflection)
    broken = {(2, 1), (1, 4), (0, 3)}

    def compose(x, y):
        return -1 if (x, y) in broken else D4.table[x][y]

    # (0,3) is off the generator columns; row 1 comes before row 2, though
    # (2,1) comes first by columns
    assert D4.hom_failure(range(8), compose) == (1, 4)
    # the anti-law of a non-abelian group fails where the law holds
    ident = list(range(S3.order))
    assert S3.hom_failure(ident, lambda x, y: S3.table[x][y]) is None
    a, b = S3.hom_failure(ident, lambda x, y: S3.table[y][x])
    assert b in S3.generators and S3.table[a][b] != S3.table[b][a]


SMALL_GROUPS = ([cyclic_group(n) for n in range(1, 7)]
                + [dihedral_group(2), dihedral_group(3), S3,
                   FiniteGroup.from_table(((0,),), name="1", generators=())])
# 1x1 and 2x2 matrices over F_7, singular ones included: the scan needs an
# associative compose, not a group on the target side
SCALARS = [MatrixK.from_rows(F7, [[str(c)]]) for c in range(7)]
SQUARES = [MatrixK.from_rows(F7, rows) for rows in (
    [["1", "0"], ["0", "1"]], [["6", "0"], ["0", "6"]], [["0", "1"], ["1", "0"]],
    [["0", "6"], ["1", "6"]], [["2", "0"], ["0", "4"]], [["1", "1"], ["0", "1"]],
    [["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]])]


@st.composite
def maps_out_of_small_groups(draw):
    """(G, images, compose): a map from a small group into a group or into
    1x1 or 2x2 matrices, extended from random generator images, with one
    image replaced by a random target half of the time."""
    G = draw(st.sampled_from(SMALL_GROUPS))
    target = draw(st.sampled_from(["group", "1x1", "2x2"]))
    if target == "group":
        H = draw(st.sampled_from(SMALL_GROUPS))
        pool, compose, one = list(range(H.order)), lambda x, y: H.table[x][y], H.identity
    else:
        pool = SCALARS if target == "1x1" else SQUARES
        compose, one = operator.mul, MatrixK.identity(F7, pool[0].rows)
    targets = st.sampled_from(pool)
    gen_images = [draw(targets) for _ in G.generators]
    images = extend_from_generators(G, gen_images, compose, one)
    if draw(st.booleans()):
        images[draw(st.integers(0, G.order - 1))] = draw(targets)
    return G, images, compose


@settings(max_examples=300, deadline=None)
@given(maps_out_of_small_groups())
def test_generator_scan_agrees_with_the_all_pairs_oracle(case):
    G, images, compose = case
    bad = G.hom_failure(images, compose)
    assert (bad is None) == (hom_failure_oracle(G, images, compose) is None)
    if bad is not None:
        a, s = bad
        assert s in (G.generators or (G.identity,))
        assert compose(images[a], images[s]) != images[G.table[a][s]]


STOCK_GROUPS = SMALL_GROUPS + [dihedral_group(4), symmetric_group(4)]


@st.composite
def group_and_seed(draw):
    G = draw(st.sampled_from(STOCK_GROUPS))
    return G, draw(st.lists(st.integers(0, G.order - 1), max_size=4, unique=True))


@settings(max_examples=150, deadline=None)
@given(group_and_seed())
def test_closure_discovery_order_is_the_frontier_oracle(case):
    G, seed = case
    assert G.closure(seed) == closure_oracle(G, seed)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.sampled_from(SMALL_GROUPS), st.data())
def test_product_subgroup_is_the_frontier_oracle(G, H, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, G.order - 1),
                                         st.integers(0, H.order - 1)), max_size=3))
    assert product_subgroup(G, H, pairs) == product_subgroup_oracle(G, H, pairs)


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
    assert fp_normalize(SIG, [(2, g), (2, Z2.inverse[g])]).is_identity()
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
            noise = [(fid, g), (fid, G.inverse[g])]
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
        assert w * e == w and e * w == w
    g = fp_normalize(SIG, [(2, 1)])
    z = fp_normalize(SIG, [(0, 1)])
    conj = z * g * z.inv()
    assert (conj * (z * g.inv() * z.inv())).is_identity()


def test_associativity_oracle():
    rng = random.Random(29)
    for _ in range(500):
        w1, w2, w3 = (random_word(rng, SIG, rng.randint(0, 5)) for _ in range(3))
        assert (w1 * w2) * w3 == w1 * (w2 * w3)


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
    w = fp_normalize(SIG, list(a) + list(b))
    product = fp_normalize(SIG, a) * fp_normalize(SIG, b)
    assert w == product
    # equality and hash are those of (sig, letters) and letters, as when
    # FPWord was a frozen dataclass
    for u in (product, fp_normalize(SIG, a), FPWord(FPSignature(2, (Z2, S3)), w.letters)):
        assert (u == w) == ((u.sig, u.letters) == (w.sig, w.letters))
        assert hash(u) == hash(u.letters)


@settings(max_examples=200, deadline=None)
@given(raw_letters)
def test_inverse_from_reversed_negated_raw(a):
    w = fp_normalize(SIG, a)
    manual = fp_normalize(SIG, [
        (fid, -v) if fid < 2 else (fid, SIG.factor(fid - 2).inverse[v])
        for fid, v in reversed(list(a))])
    assert manual == w.inv()
    assert (w * manual).is_identity()


def test_signature_mismatch():
    other = FPSignature(1, (Z2,))
    with pytest.raises(SignatureMismatch):
        FPWord(SIG, ()) * FPWord(other, ())


# -- the quotient onto the direct product ------------------------------------------

def test_alpha_kills_z_letters():
    w = fp_normalize(SIG, [(0, 3), (1, -2), (0, 1)])
    assert w.alpha_coords == SIG.identity_tuple()


def test_alpha_commutator_of_distinct_factors():
    g1 = fp_normalize(SIG, [(2, 1)])
    g2 = fp_normalize(SIG, [(3, 1)])
    comm = g1 * g2 * g1.inv() * g2.inv()
    assert not comm.is_identity()
    assert comm.alpha_coords == SIG.identity_tuple()


def test_alpha_homomorphism_oracle():
    """alpha(w1 w2) is the factorwise table product of alpha(w1) and alpha(w2)."""
    rng = random.Random(31)
    for _ in range(300):
        w1, w2 = random_word(rng, SIG, 4), random_word(rng, SIG, 4)
        assert (w1 * w2).alpha_coords == tuple(
            G.table[a][b] for G, a, b in zip(SIG.factors, w1.alpha_coords, w2.alpha_coords))


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
        assert w.alpha_coords == SIG.identity_tuple() and not w.is_identity()


def test_section_witnesses_alpha_surjectivity():
    # sigma(g) is a word of at most N letters mapping onto the tuple g
    from nodalcover.covering import sigma_word

    rng = random.Random(109)
    for _ in range(50):
        coords = (rng.randrange(Z2.order), rng.randrange(Z3.order))
        w = sigma_word(SIG, coords)
        assert w.alpha_coords == coords
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
        inv = -v if fid < sig.r else sig.factor(fid - sig.r).inverse[v]
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
                x = G.table[x][v]
        coords.append(x)
    return tuple(coords)


@settings(max_examples=200, deadline=None)
@given(junction_pairs())
def test_concat_equals_normalized_concatenation(case):
    sig, a, b = case
    assert _concat(sig, a, b) == normalize_letters_oracle(sig, a + b)
    assert _concat(sig, b, a) == normalize_letters_oracle(sig, b + a)


def inverse_raw(sig, raw):
    return [(fid, -v) if fid < sig.r else (fid, sig.factor(fid - sig.r).inverse[v])
            for fid, v in reversed(raw)]


@st.composite
def raw_with_cancelling_runs(draw):
    """A raw sequence, with identity letters and zero exponents, into which
    runs that cancel (a raw word, then its inverse) are spliced anywhere,
    and sometimes an invalid letter at the end."""
    sig = draw(signatures)
    raw = draw(raw_words(sig))
    for _ in range(draw(st.integers(0, 3))):
        run = draw(raw_words(sig, 4))
        at = draw(st.integers(0, len(raw)))
        raw[at:at] = run + inverse_raw(sig, run)
    bad = [(sig.r + sig.num_factors, 0)] + [(sig.r + j, G.order) for j, G in enumerate(sig.factors)]
    if draw(st.integers(0, 9)) == 0:
        raw.append(draw(st.sampled_from(bad)))
    return sig, raw


def _normal_form_or_error(normalize, sig, raw):
    try:
        return normalize(sig, raw)
    except (BadFactorIndex, BadElementIndex) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(raw_with_cancelling_runs())
def test_normalize_equals_the_stack_merge_oracle(case):
    """Multiplying the letters in one at a time with `_concat` gives the
    stack merge's normal form, or its error for an invalid letter."""
    sig, raw = case
    assert (_normal_form_or_error(_normalize_letters, sig, raw)
            == _normal_form_or_error(normalize_letters_oracle, sig, raw))


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
    unsorted = list(append_walk(sig, L))
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


shortlex_signatures = st.tuples(
    st.integers(0, 2),
    st.lists(st.sampled_from([cyclic_group(n) for n in range(1, 5)] + [S3]), max_size=2),
).filter(lambda t: t[0] or t[1]).map(lambda t: FPSignature(t[0], tuple(t[1])))


@settings(max_examples=80, deadline=None)
@given(shortlex_signatures, st.integers(0, 5))
def test_prepend_walk_is_the_sorted_append_walk(sig, L):
    """iter_words_raw builds each grade already sorted: it equals the append
    walk sorted per grade by shortlex_key, letters and alpha both, and a
    carry that prepends each unit letter rebuilds every word."""
    states = iter_grade_states(sig, L, None, lambda key, letter: None)
    assume(sum(sum(grade.values()) for grade in states) <= 20000)
    expected = sorted(((letters, al) for letters, al, _ in append_walk(sig, L)),
                      key=lambda entry: shortlex_key(sig, entry[0]))
    walk = list(iter_words_raw(sig, L, (), lambda c, u: (u,) + c))
    assert [(letters, al) for letters, al, _ in walk] == expected
    for letters, _, built in walk:
        assert _normalize_letters(sig, built) == letters


def test_unsorted_grades_are_rejected():
    with pytest.raises(ValueError):
        next(iter_words_raw(SIG, 2, sorted_grades=False))


def test_kernel_words_start_at_once_under_a_huge_bound():
    """Grades are built one at a time, so nothing up front grows with the bound."""
    assert next(kernel_words(SIG, 10**9)) == next(kernel_words(SIG, 1))


@pytest.mark.parametrize("bound", [-1, -3])
@pytest.mark.parametrize("walk", [enumerate_words, lambda sig, n: list(kernel_words(sig, n)),
                                  enumerate_components],
                         ids=["enumerate_words", "kernel_words", "enumerate_components"])
def test_a_negative_word_bound_is_refused(walk, bound):
    """The one word walk refuses a negative bound, so every list built on
    it does, instead of returning the identity alone or nothing."""
    with pytest.raises(ValueError, match="^max_len must be nonnegative$"):
        walk(SIG, bound)


@settings(max_examples=40, deadline=None)
@given(small_signatures, st.integers(0, 4))
def test_walk_built_words_carry_their_alpha(sig, L):
    """Every word that `enumerate_words` and `kernel_words` build, and every
    index that `enumerate_components` builds, carries the walk's alpha,
    equal to the factorwise oracle, and within one walk each quotient
    element is one tuple.  A component index that strips a leading letter
    drops the alpha it was given and computes its own on its first read."""
    states = iter_grade_states(sig, L, None, lambda key, letter: None)
    assume(sum(sum(grade.values()) for grade in states) <= 5000)
    walks = [enumerate_words(sig, L), list(kernel_words(sig, L)),
             enumerate_components(sig, L)]
    for words in walks:
        assert all(w._alpha is not None for w in words)
        assert [w.alpha_coords for w in words] == [alpha_oracle(sig, w.letters) for w in words]
        assert len({id(w._alpha) for w in words}) == len({w._alpha for w in words})
    for w in walks[0]:
        if w.letters and w.letters[0][0] >= sig.r:
            stripped = ComponentIndex(w.letters[0][0] - sig.r, sig, w.letters, w._alpha)
            assert stripped._alpha is None
            assert stripped.alpha_coords == alpha_oracle(sig, stripped.letters)


kernel_word_signatures = st.tuples(
    st.integers(0, 2),
    st.lists(st.sampled_from([trivial_group(), Z2, Z3, cyclic_group(4), S3, dihedral_group(4)]),
             min_size=1, max_size=3),
).map(lambda t: FPSignature(t[0], tuple(t[1])))


@settings(max_examples=60, deadline=None)
@given(kernel_word_signatures)
def test_first_kernel_word_is_the_first_enumerated_one(sig):
    """With no Z factor the first kernel word is a commutator of length 4,
    so the enumeration to length 4 decides it: none there means none at all."""
    assert first_kernel_word(sig) == next(kernel_words(sig, 4), None)


def test_first_kernel_word_closed_forms():
    assert str(first_kernel_word(FPSignature(1, (S3, Z2)))) == "z1"
    sig = FPSignature(0, (trivial_group(), S3, Z2))
    assert str(first_kernel_word(sig)) == "g2:021 * g3:1 * g2:021 * g3:1"
    assert first_kernel_word(FPSignature(0, (trivial_group(), S3))) is None


@settings(max_examples=30, deadline=None)
@given(signatures, st.integers(0, 4))
def test_kernel_words_are_the_filtered_enumeration(sig, L):
    expected = [w for w in enumerate_words(sig, L)
                if w.letters and w.alpha_coords == sig.identity_tuple()]
    assert list(kernel_words(sig, L)) == expected


@settings(max_examples=40, deadline=None)
@given(signatures, st.integers(0, 4))
def test_grade_states_count_the_enumeration_by_alpha(sig, L):
    """With key = alpha tuple, the state walk counts exactly the enumerated
    normal forms of each grade by (last factor, exponent sign, alpha), in
    the order of their first word, and steps each (key, letter) once."""
    r = sig.r
    steps = Counter()

    def alpha_step(al, letter):
        steps[al, letter] += 1
        fid, v = letter
        if fid < r:
            return al
        j = fid - r
        return al[:j] + (sig.factor(j).table[al[j]][v],) + al[j + 1:]

    grades = list(iter_grade_states(sig, L, sig.identity_tuple(), alpha_step))
    expected = [Counter() for _ in range(L + 1)]
    for letters, al, _ in append_walk(sig, L):
        fid, v = letters[-1] if letters else (-1, 0)
        sign = (1 if v > 0 else -1) if 0 <= fid < r else 0
        expected[gen_length(r, letters)][fid, sign, al] += 1
    # so the per-grade totals and the counts per alpha agree as well
    assert [list(g.items()) for g in grades] == [list(e.items()) for e in expected]
    assert set(steps.values()) <= {1}


# -- strings -------------------------------------------------------------------------

def test_word_string_roundtrip():
    rng = random.Random(37)
    for _ in range(50):
        w = random_word(rng, SIG, 4)
        assert parse_word(SIG, format_word(w)) == w
    assert format_word(FPWord(SIG, ())) == "e"
    assert parse_word(SIG, "z1^2 * g1:1 * z2^-1").letters == ((0, 2), (2, 1), (1, -1))


labelled_signatures = st.tuples(
    st.integers(0, 2),
    st.lists(st.sampled_from([trivial_group(), Z2, S3, dihedral_group(4)]), max_size=3),
).filter(lambda t: t[0] or t[1]).map(lambda t: FPSignature(t[0], tuple(t[1])))


@settings(max_examples=100, deadline=None)
@given(labelled_signatures, st.data())
def test_format_word_equals_the_per_letter_formatting(sig, data):
    """`format_word`'s per-signature letter table gives the strings the
    per-letter formatting does, and a signature builds the table only when
    it formats its first word."""
    assert "_letter_strings" not in vars(sig)
    for _ in range(5):
        w = fp_normalize(sig, data.draw(raw_words(sig)))
        assert format_word(w) == format_word_oracle(w)
