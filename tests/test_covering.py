"""Components, deck actions, freeness, separating opens, domains, witnesses."""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from nodalcover import cli, covering as covering_module, groups as groups_module, io as spec_io
from nodalcover.covering import (
    ComponentIndex,
    FundamentalDomain,
    NodeClass,
    SmoothClass,
    build_finite_cover,
    certify_free_action,
    component_action,
    cover_witness,
    enumerate_components,
    find_separating_open,
    fundamental_domain,
    kernel_generators,
    node_lifts,
    sigma_word,
)
from nodalcover.curves import NodalCurve, pi1_presentation
from nodalcover.descent import COCYCLE_LEN, LATTICE_LEN
from nodalcover.errors import SignatureMismatch, TrivialW
from nodalcover.groups import (
    FiniteGroup,
    FPSignature,
    FPWord,
    _alpha_tuple,
    cyclic_group,
    dihedral_group,
    enumerate_words,
    fp_normalize,
    iter_grade_states,
    iter_words_raw,
    kernel_words,
    shortlex_key,
    symmetric_group,
    trivial_group,
)
from nodalcover.specialize import commuting_square_check

from helpers import (
    certify_free_oracle,
    coset_strip,
    cover_witness_oracle,
    domain_boundary_oracle,
    enumerate_components_oracle,
    finite_cover_transitive_oracle,
    growth_counts,
    node_ends_oracle,
    rank1_rep,
    rank2_rep,
    random_f7_quotient,
    random_word,
    section_entry_oracle,
    separating_open_oracle,
)

Z1 = trivial_group()
Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
S3 = symmetric_group(3)
SIG = FPSignature(1, (Z2, Z3))
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


# -- canonical components -----------------------------------------------------

def test_coset_absorption():
    s = fp_normalize(SIG, [(1, 1), (0, 2)])
    gs = fp_normalize(SIG, [(1, 1)]) * s  # leading letter merges into the factor
    assert ComponentIndex(0, SIG, gs.letters) == ComponentIndex(0, SIG, s.letters)
    assert ComponentIndex(0, SIG, ()).rep.is_identity()


def test_canonical_agrees_with_brute_force_coset():
    rng = random.Random(79)
    for _ in range(100):
        s1 = random_word(rng, SIG, 3)
        s2 = random_word(rng, SIG, 3)
        j = rng.randrange(2)
        G = SIG.factor(j)
        same_coset = any(
            (fp_normalize(SIG, [(1 + j, g)]) * s1) == s2 or (g == G.identity and s1 == s2)
            for g in range(G.order))
        idx_equal = ComponentIndex(j, SIG, s1.letters) == ComponentIndex(j, SIG, s2.letters)
        assert idx_equal == same_coset


# -- the right action ------------------------------------------------------------

def test_action_identity_and_composition():
    rng = random.Random(83)
    e = FPWord(SIG, ())
    for _ in range(100):
        c = ComponentIndex(rng.randrange(2), SIG, random_word(rng, SIG, 3).letters)
        assert component_action(e, c) == c
        w1, w2 = random_word(rng, SIG, 3), random_word(rng, SIG, 3)
        assert component_action(w2, component_action(w1, c)) == \
            component_action(w1 * w2, c)


def test_factor_letter_stabilizes_base_component():
    base = ComponentIndex(0, SIG, ())
    g = fp_normalize(SIG, [(1, 1)])
    assert component_action(g, base) == base


# -- freeness ----------------------------------------------------------------------

def _direct_pairing(sig, max_len):
    """Oracle: act by every nonempty kernel word on every enumerated component
    and require that it moves it.  Returns (kernel words, components, checks),
    one check per component and nonidentity element of its factor."""
    kernel = [w for w in enumerate_words(sig, max_len)
              if not w.is_identity() and w.alpha_coords == sig.identity_tuple()]
    comps = enumerate_components(sig, max_len)
    for w in kernel:
        for c in comps:
            assert component_action(w, c) != c, f"{w} fixes {c}"
    return len(kernel), len(comps), sum(sig.factor(c.j).order - 1 for c in comps)


@pytest.mark.parametrize("r, groups", [(1, (Z2,)), (1, (Z2, Z3)), (2, (Z2,))],
                         ids=["Z^*1*[Z2]", "Z^*1*[Z2,Z3]", "Z^*2*[Z2]"])
def test_free_action_agrees_with_direct_pairing(r, groups):
    sig = FPSignature(r, groups)
    kernel_words, components, checks = _direct_pairing(sig, 4)
    report = certify_free_action(sig, 4)
    assert report.passed and report.strategy == "stabilizer-enumeration"
    assert report.kernel_words == kernel_words
    assert report.components == components
    assert report.checks == checks
    assert report.full_group_witnesses


free_signatures = st.tuples(
    st.integers(0, 2), st.lists(st.sampled_from([Z1, Z2, Z3, Z4, S3]), max_size=3),
).filter(lambda t: t[0] or t[1]).map(lambda t: FPSignature(t[0], tuple(t[1])))


@settings(max_examples=60, deadline=None)
@given(free_signatures, st.integers(2, 5))
def test_free_action_equals_per_word_oracle(sig, L):
    # the oracle walks every word: cap L by the alphabet size to keep it small
    alphabet = 2 * sig.r + sum(G.order - 1 for G in sig.factors)
    while L > 2 and sum(alphabet ** n for n in range(L + 1)) > 3000:
        L -= 1
    assert certify_free_action(sig, L) == certify_free_oracle(sig, L)


def test_free_action_lists_its_witnesses_without_acting(monkeypatch):
    """Each nontrivial factor's first letter fixes its base component by
    canonicalisation, so the report lists the witnesses and calls no
    `component_action`."""
    expected = certify_free_oracle(SIG, 4)

    def refuse(*args):
        raise AssertionError("a witness fixed by construction was acted out")

    monkeypatch.setattr(covering_module, "component_action", refuse)
    report = certify_free_action(SIG, 4)
    assert report == expected
    assert report.full_group_witnesses == ("g1:1 fixes Y^1_e", "g2:1 fixes Y^2_e")


def test_free_action_vacuous_without_z_factors():
    sig = FPSignature(0, (Z3,))
    report = certify_free_action(sig, 4)
    assert report.passed and report.kernel_words == 0


def test_max_len_precondition():
    with pytest.raises(ValueError):
        certify_free_action(SIG, 1)


# -- growth series ---------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(free_signatures, st.integers(2, 12))
def test_growth_series_equals_the_state_walk_counts(sig, L):
    """The growth series of the free product, with no walk, gives the
    state walk's normal forms per length, `certify_free_action`'s kernel
    words and components, and the entries `descend` budgets: the normal
    forms up to COCYCLE_LEN and the components up to LATTICE_LEN."""
    series = growth_counts(sig, L)
    totals = [sum(grade.values()) for grade in iter_grade_states(sig, L, None, lambda *_: None)]
    report = certify_free_action(sig, L)
    assert series.grades == totals
    assert (series.kernel_words, series.components) == (report.kernel_words, report.components)
    lattice = growth_counts(sig, min(L, LATTICE_LEN))
    assert cli._descend_entries(sig, L) == (sum(series.grades[:min(L, COCYCLE_LEN) + 1])
                                            + lattice.components)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12))
def test_growth_series_equals_the_square_word_count(seed, L):
    """`commuting_square_check` covers every normal form up to L: the sum
    of the series' coefficients, on random quotient reps of Z^{*r} * G."""
    fq = random_f7_quotient(random.Random(seed))
    cert = commuting_square_check(fq, fq.presentation, max_len=L)
    assert cert.words_checked == sum(growth_counts(fq.sig, L).grades)


@pytest.mark.parametrize("files", [("s3_2dim.json", "nodal_cubic.json"),
                                   ("z2_sign.json", "cycle3.json"), ("rank1_rep.json",)],
                         ids=["s3-on-the-nodal-cubic", "z2-on-the-triangle", "rank1-rep"])
def test_growth_series_at_length_40_on_the_demo_data(files):
    """At L = 40, where no word walk reaches, the series gives every count
    the state walks report on the demo signatures: Z * S3, Z * Z2 * 1 * 1
    (with a commuting square on each) and Z * Z2."""
    if len(files) == 2:
        fq = spec_io.load_fq(DATA / files[0], spec_io.load_curve(DATA / files[1]))
        sig = fq.sig
    else:
        fq, sig = None, spec_io.load_rep(DATA / files[0]).sig
    series = growth_counts(sig, 40)
    totals = [sum(grade.values()) for grade in iter_grade_states(sig, 40, None, lambda *_: None)]
    report = certify_free_action(sig, 40)
    assert series.grades == totals
    assert (series.kernel_words, series.components) == (report.kernel_words, report.components)
    if fq is not None:
        cert = commuting_square_check(fq, fq.presentation, max_len=40)
        assert cert.words_checked == sum(series.grades)


@pytest.mark.parametrize("L", [2, 3, 4, 6, 40])
@pytest.mark.parametrize("name", ["rank1_rep.json", "rank2_rep.json", "rank1_filegroup_rep.json"])
def test_growth_series_counts_the_domain_witnesses(monkeypatch, capsys, name, L):
    """`domain` lists one coverage witness per component up to WITNESS_LEN:
    the count `cli._domain_entries` budgets for them and the report's list
    both equal the series' components at that length."""
    expected = growth_counts(spec_io.load_rep(DATA / name).sig,
                             min(L, cli.WITNESS_LEN)).components
    budgeted = []
    certify = covering_module.certify_free_action

    def counting_certify(sig, max_len):
        report = certify(sig, max_len)
        budgeted.append(report.components)
        return report

    monkeypatch.setattr(covering_module, "certify_free_action", counting_certify)
    code = cli.main(["--format", "json", "--max-len", str(L), "domain", str(DATA / name)])
    assert code == 0
    assert budgeted == [expected]
    assert len(json.loads(capsys.readouterr().out)["coverage_witnesses"]) == expected


# -- separating opens -----------------------------------------------------------------

def test_case_one_disjoint_translates():
    out = find_separating_open(SmoothClass(0, (0, 2)), SIG, max_len=4)
    assert out.case == 1
    assert out.one_sided_meets == 0
    assert out.kernel_words_checked == out.empty_meets > 0


def test_case_two_subcases_and_guard():
    """A tree node joins two curve components, which no kernel word
    exchanges; the double-overlap subcase is excluded by proof, not checked."""
    out = find_separating_open(NodeClass("n0", (1, 1)), SIG, max_len=4)
    assert out.case == 2 and out.one_sided_meets == 0
    assert out.empty_meets + out.one_sided_meets == out.kernel_words_checked


def test_self_node_case_two():
    """The self-node's lift at g joins G s and G z s; the kernel word
    s^-1 z^-1 s and its inverse are its one-sided meets."""
    rep = rank1_rep()
    out = find_separating_open(NodeClass("x0", (1,)), rep.sig,
                               max_len=4, presentation=rep.presentation)
    assert out.case == 2 and out.one_sided_meets == 2
    assert out.empty_meets + out.one_sided_meets == out.kernel_words_checked


def test_separating_open_needs_max_len_two():
    with pytest.raises(ValueError, match="max_len must be at least 2"):
        find_separating_open(NodeClass("n0", (1, 1)), SIG, 1)


@pytest.mark.parametrize("removed,message", [
    (NodeClass("n9", (1, 1)), "unknown node n9"),
    (SmoothClass(0, (1, 2)),
     "smooth class coordinates must be trivial at its own factor"),
    ("n0", "the removed class must be a SmoothClass or NodeClass"),
    ((NodeClass("n0", (1, 1)),), "the removed class must be a SmoothClass or NodeClass"),
], ids=["unknown-node", "smooth-class-off-its-factor", "neither-kind", "a-tuple-of-classes"])
def test_separating_open_refuses_bad_removed_classes(removed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        find_separating_open(removed, SIG, 4)


@st.composite
def separating_cases(draw):
    """A chain curve of a signature with r 0-2 and one or two factors, one
    removed smooth class or node class, and max_len 2-5, lowered while the
    oracle would walk more than 50,000 words."""
    r = draw(st.integers(0, 2))
    groups = draw(st.lists(st.sampled_from([Z2, Z3, S3]), min_size=1, max_size=2))
    sig = FPSignature(r, tuple(groups))
    coords = tuple(draw(st.integers(0, G.order - 1)) for G in groups)
    node_ids = [rec[0] for rec in node_lifts(sig)]
    if node_ids and draw(st.integers(0, 3)):  # three node classes in four
        removed = NodeClass(draw(st.sampled_from(node_ids)), coords)
    else:
        j = draw(st.integers(0, len(groups) - 1))
        removed = SmoothClass(j, coords[:j] + (groups[j].identity,) + coords[j + 1:])
    L = draw(st.integers(2, 5))
    while L > 2 and sum(sum(g.values()) for g in iter_grade_states(
            sig, L, None, lambda key, letter: None)) > 50000:
        L -= 1
    return removed, sig, L


@settings(max_examples=100, deadline=None)
@given(separating_cases())
def test_separating_open_equals_per_word_oracle(case):
    removed, geom, L = case
    assert find_separating_open(removed, geom, L) == separating_open_oracle(removed, geom, L)


def test_separating_open_at_length_forty_is_fast():
    """Criterion 5's case-2 triangle at max_len 40: the count is a state walk
    and the meets come from 2|G_j| candidate words, so no kernel word is
    listed."""
    triangle = NodalCurve.build(
        [("C1", ("a", "b")), ("C2", ("a", "b")), ("C3", ("a", "b"))],
        [("n0", ("C1", "b"), ("C2", "a")),
         ("n1", ("C2", "b"), ("C3", "a")),
         ("n2", ("C3", "b"), ("C1", "a"))])
    pres = pi1_presentation(triangle)
    sig = FPSignature(pres.r, (Z2, Z2, Z2))
    start = time.perf_counter()
    out = find_separating_open(NodeClass("n1", (1, 0, 1)), sig, 40, presentation=pres)
    assert time.perf_counter() - start < 1.0
    assert out.case == 2
    assert out.kernel_words_checked == certify_free_action(sig, 40).kernel_words


# -- the free basis of the kernel ------------------------------------------------------

small_signatures = st.tuples(
    st.integers(0, 2), st.lists(st.sampled_from([Z2, Z3, S3]), max_size=2),
).filter(lambda t: t[0] or t[1]).map(lambda t: FPSignature(t[0], tuple(t[1])))


def _kurosh_rank(sig):
    """1 - |Q| chi, with chi = sum_j 1/|G_j| - r - N + 1 the Euler
    characteristic of the free product and Q the direct product."""
    chi = sum(Fraction(1, G.order) for G in sig.factors) - sig.r - sig.num_factors + 1
    return 1 - math.prod(G.order for G in sig.factors) * chi


@pytest.mark.parametrize("r, groups, rank", [
    (1, (Z2, Z3), 8),
    (2, (Z2, Z3), 14),
    (0, (Z4, Z4), 9),
    (2, (S3, S3), 97),
    (0, (S3, Z2), 5),
    (1, (Z2,), 2),
    (1, (S3,), 6),
    (0, (dihedral_group(4), Z2), 7),
    (1, (Z1, Z2), 2),
    (2, (Z1,), 2),
    (3, (), 3),
    (0, (Z2, Z2, Z2), 5),
    (1, (Z2, Z2, Z3), 21),
])
def test_kernel_basis_has_the_kurosh_rank(r, groups, rank):
    sig = FPSignature(r, groups)
    assert _kurosh_rank(sig) == rank
    assert len(kernel_generators(sig)) == rank


@settings(max_examples=40, deadline=None)
@given(small_signatures)
def test_kernel_basis_count_is_the_kurosh_rank(sig):
    assert len(kernel_generators(sig)) == _kurosh_rank(sig)


@settings(max_examples=40, deadline=None)
@given(small_signatures)
def test_kernel_basis_words_are_distinct_short_kernel_normal_forms(sig):
    """Basis words are distinct nonempty normal forms in ker alpha of length
    <= 2N + 1, and none is the inverse of another."""
    basis = [w.letters for w in kernel_generators(sig)]
    basis_set = set(basis)
    assert len(basis_set) == len(basis)
    for letters in basis:
        w = FPWord(sig, letters)
        assert letters and fp_normalize(sig, letters) == w
        assert w.alpha_coords == sig.identity_tuple()
        assert shortlex_key(sig, letters)[0] <= 2 * sig.num_factors + 1
        assert w.inv().letters not in basis_set


def _quotient_graph_pieces(sig, w):
    """The pieces sigma(q) x sigma(q')^{-1} of w's walk through the quotient
    graph of ker alpha, x one letter or none.
    A z syllable is read as |v| letters z^{+-1}, each a loop at q; a letter g
    of G_j at q passes the G_j-coset of q, so it is the two pieces
    sigma(q) q_j^{-1} sigma(q'')^{-1} and sigma(q'') (qg)_j sigma(qg)^{-1},
    with q'' = q with coordinate j cleared."""
    r = sig.r
    q = sig.identity_tuple()
    steps = []
    for fid, v in w.letters:
        if fid < r:
            steps += [(q, (fid, 1 if v > 0 else -1), q)] * abs(v)
            continue
        j = fid - r
        G = sig.factor(j)
        cleared = q[:j] + (G.identity,) + q[j + 1:]
        moved = q[:j] + (G.table[q[j]][v],) + q[j + 1:]
        steps.append((q, (fid, G.inverse[q[j]]), cleared))
        steps.append((cleared, (fid, moved[j]), moved))
        q = moved
    return [fp_normalize(sig, sigma_word(sig, a).letters + (x,)
                         + sigma_word(sig, b).inv().letters)
            for a, x, b in steps]


@settings(max_examples=40, deadline=None)
@given(small_signatures)
def test_kernel_words_rewrite_in_the_free_basis(sig):
    """Every kernel word up to length 4 is the product of the pieces of its
    walk through the quotient graph, each empty, a basis word, or the
    inverse of one."""
    basis = {w.letters for w in kernel_generators(sig)}
    for w in kernel_words(sig, 4):
        product = FPWord(sig, ())
        for piece in _quotient_graph_pieces(sig, w):
            assert (not piece.letters or piece.letters in basis
                    or piece.inv().letters in basis)
            product = product * piece
        assert product == w


# -- fundamental domains ----------------------------------------------------------------

def test_domain_trivial_factor_expansion():
    sig = FPSignature(1, (trivial_group(),))
    w = fp_normalize(sig, [(0, 1)])
    dom = fundamental_domain(sig, w)
    assert {str(c) for c in dom.core} == {"Y^1_[z1]", "Y^1_[z1^2]"}
    assert len(dom.core) <= dom.size_bound == 2


def test_domain_counting_bound():
    sig = FPSignature(2, (Z2, Z3))
    w = fp_normalize(sig, [(0, 1)])
    dom = fundamental_domain(sig, w)
    assert len(dom.core) <= dom.size_bound == 2 * 6 * 3


def test_domain_requires_nontrivial_kernel_word():
    with pytest.raises(TrivialW):
        fundamental_domain(SIG, FPWord(SIG, ()))
    with pytest.raises(TrivialW):
        fundamental_domain(SIG, fp_normalize(SIG, [(1, 1)]))


def test_domain_core_components_not_stabilized():
    sig = FPSignature(1, (Z2,))
    dom = fundamental_domain(sig, fp_normalize(sig, [(0, 1)]))
    for c in dom.core:
        for w in enumerate_words(sig, 4):
            if not w.is_identity() and w.alpha_coords == sig.identity_tuple():
                assert component_action(w, c) != c


def test_domain_boundary_records_outside_partners():
    rep = rank2_rep()
    sig = rep.sig
    dom = fundamental_domain(sig, fp_normalize(sig, [(0, 1)]), rep.presentation)
    core = set(dom.core)
    assert dom.boundary
    for nid, lift, inside, outside in dom.boundary:
        assert inside in core
        assert outside not in core


@st.composite
def domain_cases(draw):
    """A one- or two-factor signature, a random nontrivial kernel word (a
    product of conjugated free-basis words), and either no presentation or
    that of a random curve: the factors' components in a chain, plus r
    nodes each joining two random components, or one to itself."""
    r = draw(st.integers(0, 2))
    groups = tuple(draw(st.lists(st.sampled_from([Z1, Z2, Z3, S3]), min_size=1, max_size=2)))
    sig = FPSignature(r, groups)
    basis = kernel_generators(sig)
    assume(basis)
    w = FPWord(sig, ())
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from(basis))
        s = FPWord(sig, draw(st.sampled_from(
            [letters for letters, _, _ in iter_words_raw(sig, 2)])))
        w = w * s * (k if draw(st.booleans()) else k.inv()) * s.inv()
    assume(not w.is_identity())
    if not draw(st.booleans()):
        return sig, w, None
    n = len(groups)
    branches = [[] for _ in range(n)]
    nodes = []
    ends = [(j, j + 1) for j in range(n - 1)]
    ends += [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(r)]
    for k, (a, b) in enumerate(ends):
        branches[a].append(f"p{k}")
        branches[b].append(f"q{k}")
        nodes.append((f"m{k}", (f"C{a + 1}", f"p{k}"), (f"C{b + 1}", f"q{k}")))
    curve = NodalCurve.build([(f"C{j + 1}", tuple(bs)) for j, bs in enumerate(branches)], nodes)
    return sig, w, pi1_presentation(curve)


@settings(max_examples=40, deadline=None)
@given(domain_cases())
def test_domain_boundary_equals_the_eager_oracle(case):
    """The boundary a domain builds on its first read equals, record for
    record and in order, the one construction used to build."""
    sig, w, pres = case
    dom = fundamental_domain(sig, w, pres)
    assert dom.boundary == domain_boundary_oracle(dom, pres)


def _counting_inits(mp, classes):
    """Count the constructions of each class while `mp` is active."""
    counts = dict.fromkeys(classes, 0)

    def counted(cls, init):
        def __init__(self, *args, **kwargs):
            counts[cls] += 1
            init(self, *args, **kwargs)
        return __init__

    for cls in classes:
        mp.setattr(cls, "__init__", counted(cls, cls.__init__))
    return counts


def test_domain_boundary_is_built_on_first_read_once(monkeypatch):
    """Constructing a domain builds its core; the first read of ``boundary``
    builds one `ComponentIndex` per lift it examines, only the lift's
    outside side, and one word per boundary lift, and a second read builds
    none and returns the same tuple.  A core component G_j s is examined at
    |G_j| lifts per node end on curve component j."""
    rep = rank2_rep()
    sig = rep.sig
    dom = fundamental_domain(sig, fp_normalize(sig, [(0, 1)]), rep.presentation)
    ends = node_ends_oracle(sig, rep.presentation).values()
    examined = sum(sig.factor(c.j).order * sum((ja == c.j) + (jb == c.j) for ja, jb, _ in ends)
                   for c in dom.core)
    expected = domain_boundary_oracle(dom, rep.presentation)
    built = _counting_inits(monkeypatch, (ComponentIndex, FPWord))
    first = dom.boundary
    assert examined > 0 and built == {ComponentIndex: examined, FPWord: len(first)}
    assert dom.boundary is first and built == {ComponentIndex: examined, FPWord: len(first)}
    assert first == expected


def test_domain_boundary_on_a_self_node_by_hand():
    """The z1 domain of Z^*1 * [Z2] on its one-component curve, glued to
    itself by the loop node x0.  Its core is G s for s in z, za, z^2, z^2 a
    (a the generator of Z2).  The lift (x0, u) joins G u to G zu, so a core
    component G s meets the lifts at u = s, as, z^-1 s and z^-1 as; the
    twelve whose other side is not a core component are listed."""
    sig = FPSignature(1, (Z2,))
    dom = fundamental_domain(sig, fp_normalize(sig, [(0, 1)]))
    assert node_lifts(sig) == (("x0", 0, 0, ((0, 1),)),)
    a, za, z2, z2a = "g1:1", "z1 * g1:1", "z1^2", "z1^2 * g1:1"
    assert [str(c) for c in dom.core] == [f"Y^1_[{s}]" for s in ("z1", za, z2, z2a)]
    assert [(nid, str(u), str(inside), str(outside))
            for nid, u, inside, outside in dom.boundary] == [
        ("x0", u, f"Y^1_[{s}]", f"Y^1_[{t}]") for u, s, t in [
            ("e", "z1", "e"),
            (a, za, "e"),
            (z2, z2, "z1^3"),
            (f"{a} * z1", "z1", f"{za} * z1"),
            (f"z1^-1 * {a} * z1", "z1", f"z1^-1 * {a} * z1"),
            (z2a, z2a, f"z1^3 * {a}"),
            (f"{a} * {za}", za, f"{za} * {za}"),
            (f"{a} * {z2}", z2, f"{za} * {z2}"),
            (f"z1^-1 * {a} * {za}", za, f"z1^-1 * {a} * {za}"),
            (f"z1^-1 * {a} * {z2}", z2, f"z1^-1 * {a} * {z2}"),
            (f"{a} * {z2a}", z2a, f"{za} * {z2a}"),
            (f"z1^-1 * {a} * {z2a}", z2a, f"z1^-1 * {a} * {z2a}"),
        ]]
    assert dom.boundary == domain_boundary_oracle(dom)


def test_node_lifts_read_the_curve_and_refuse_a_mismatched_signature():
    """Each node's record holds its ends' curve components and its glue
    letters; a signature with another factor count or rank is refused."""
    triangle = NodalCurve.build(
        [("C1", ("a", "b")), ("C2", ("a", "b")), ("C3", ("a", "b"))],
        [("n0", ("C1", "b"), ("C2", "a")),
         ("n1", ("C2", "b"), ("C3", "a")),
         ("n2", ("C3", "b"), ("C1", "a"))])
    pres = pi1_presentation(triangle)
    sig = FPSignature(pres.r, (Z2, Z2, Z2))
    assert node_lifts(sig, pres) == (("n0", 0, 1, ()), ("n1", 1, 2, ()), ("n2", 2, 0, ((0, 1),)))
    assert [(nid, ja, jb, list(glue)) for nid, ja, jb, glue in node_lifts(sig, pres)] == \
        [(nid, *ends) for nid, ends in node_ends_oracle(sig, pres).items()]
    with pytest.raises(SignatureMismatch, match="one factor per curve component"):
        node_lifts(FPSignature(pres.r, (Z2, Z2)), pres)
    with pytest.raises(SignatureMismatch, match="signature rank differs"):
        node_lifts(FPSignature(0, (Z2, Z2, Z2)), pres)


# -- coverage witnesses --------------------------------------------------------------------

def test_witness_identity_on_core():
    sig = FPSignature(1, (Z2,))
    w = fp_normalize(sig, [(0, 1)])
    dom = fundamental_domain(sig, w)
    g = sigma_word(sig, (1,))
    target = ComponentIndex(0, sig, (w * g).letters)
    assert cover_witness(dom, target).is_identity()


def test_witness_random_targets():
    sig = SIG
    dom = fundamental_domain(sig, fp_normalize(sig, [(0, 1)]))
    rng = random.Random(89)
    for _ in range(200):
        j = rng.randrange(2)
        target = ComponentIndex(j, sig, random_word(rng, sig, 6).letters)
        t = cover_witness(dom, target)
        assert t.alpha_coords == sig.identity_tuple()
        start = ComponentIndex(j, sig, (dom.word * sigma_word(sig, target.alpha_coords)).letters)
        assert component_action(t, start) == target


def test_witness_every_component_up_to_length():
    sig = FPSignature(1, (Z2,))
    dom = fundamental_domain(sig, fp_normalize(sig, [(0, 1)]))
    for target in enumerate_components(sig, 5):
        cover_witness(dom, target)  # raises on failure


def test_witnesses_of_enumerated_targets_compute_no_alpha(monkeypatch):
    """Each enumerated target carries the alpha of the walk that built it,
    so its witness computes none; a hand-built target computes it once."""
    sig = FPSignature(1, (Z2, S3))
    dom = fundamental_domain(sig, FPWord(sig, ((0, 1),)))
    targets = enumerate_components(sig, 4)
    calls = []
    real = groups_module._alpha_tuple

    def counted(sig, letters):
        calls.append(letters)
        return real(sig, letters)

    for module in (groups_module, covering_module):
        monkeypatch.setattr(module, "_alpha_tuple", counted, raising=False)
    witnesses = [cover_witness(dom, t) for t in targets]
    assert len(targets) > 1000 and calls == []
    hand_built = ComponentIndex(targets[-1].j, sig, targets[-1].letters)
    assert cover_witness(dom, hand_built) == witnesses[-1]
    assert calls == [hand_built.letters]
    monkeypatch.undo()
    assert witnesses == [cover_witness_oracle(dom, t) for t in targets]


@settings(max_examples=40, deadline=None)
@given(small_signatures, st.integers(0, 5))
def test_shared_word_components_equal_the_per_factor_oracle(sig, L):
    """`enumerate_components` equals, in order, one index per (normal form,
    factor); it builds no word and one index per component, and the indices
    of one normal form share its letters tuple."""
    assume(sum(sum(g.values()) for g in iter_grade_states(
        sig, L, None, lambda key, letter: None)) <= 20000)
    with pytest.MonkeyPatch.context() as mp:
        built = _counting_inits(mp, (FPWord, ComponentIndex))
        targets = enumerate_components(sig, L)
    assert built == {FPWord: 0, ComponentIndex: len(targets)}
    assert targets == enumerate_components_oracle(sig, L)
    assert len({id(t.letters) for t in targets}) == len({t.letters for t in targets})


@settings(max_examples=40, deadline=None)
@given(small_signatures, st.integers(0, 5), st.data())
def test_enumerated_indices_read_alpha_and_witness_from_their_letters(sig, L, data):
    """Every enumerated index reports the alpha of its letters, has the
    oracle's coverage witness and reads back its representative as the word
    of its letters.  An index built from a word with a leading j-letter and
    that word's alpha strips the letter and reports the alpha of the rest."""
    kernel = list(itertools.islice(kernel_words(sig, 4), 12))
    assume(sig.num_factors and kernel)
    assume(sum(sum(g.values()) for g in iter_grade_states(
        sig, L, None, lambda key, letter: None)) <= 3000)
    dom = fundamental_domain(sig, data.draw(st.sampled_from(kernel)))
    for c in enumerate_components(sig, L):
        assert c.alpha_coords == _alpha_tuple(sig, c.letters)
        assert cover_witness(dom, c) == cover_witness_oracle(dom, c)
        assert c.rep == FPWord(sig, c.letters)
    for letters, al, _ in iter_words_raw(sig, L):
        if letters and letters[0][0] >= sig.r:
            c = ComponentIndex(letters[0][0] - sig.r, sig, letters, al)
            assert c.letters == letters[1:]
            assert c.alpha_coords == _alpha_tuple(sig, letters[1:]) != al


@settings(max_examples=30, deadline=None)
@given(small_signatures, st.data())
def test_component_index_is_canonical_by_construction(sig, data):
    """An index stores its coset's representative whatever word builds it:
    ComponentIndex(j, g s) equals ComponentIndex(j, s) for every g in G_j,
    and its letters are the strip of s, the coset's unique shortest member.
    A factor index outside 0..N-1 is refused, and the witness of a target
    built from a non-canonical word is its coset's witness.  Equality and
    hash are those of (j, sig, letters) and (j, letters), as when the class
    was a frozen dataclass holding its representative's word."""
    s = FPWord(sig, data.draw(st.sampled_from(
        [letters for letters, _, _ in iter_words_raw(sig, 3)])))
    for bad in (-1, sig.num_factors):
        with pytest.raises(SignatureMismatch, match=f"^no finite factor {bad}$"):
            ComponentIndex(bad, sig, s.letters)
    kernel = list(itertools.islice(kernel_words(sig, 4), 12))
    assume(sig.num_factors and kernel)
    j = data.draw(st.integers(0, sig.num_factors - 1))
    canon = coset_strip(sig, j, s.letters)
    coset = [fp_normalize(sig, [(sig.r + j, g)]) * s for g in range(sig.factor(j).order)]
    assert [len(gs) for gs in coset].count(len(canon)) == 1
    assert min(coset, key=len).letters == canon
    dom = fundamental_domain(sig, data.draw(st.sampled_from(kernel)))
    c = ComponentIndex(j, sig, canon)
    witness = cover_witness_oracle(dom, c)
    for gs in coset:
        index = ComponentIndex(j, sig, gs.letters)
        assert (index, hash(index), index.letters) == (c, hash(c), canon)
        assert cover_witness(dom, index) == witness
    assert hash(c) == hash((j, canon))
    for other in (ComponentIndex((j + 1) % sig.num_factors, sig, s.letters),
                  ComponentIndex(j, sig, dom.word.letters)):
        assert (other == c) == ((other.j, other.sig, other.letters) == (c.j, c.sig, c.letters))
        assert hash(other) == hash((other.j, other.letters))


def test_section_is_read_only_and_proved_for_every_factor():
    """The section cannot be replaced after construction: item assignment
    raises, and the per-(g, j) oracle accepts the entry at every factor."""
    s = fp_normalize(SIG, [(0, 2), (1, 1), (0, -1)])
    coords = s.alpha_coords
    dom = fundamental_domain(SIG, fp_normalize(SIG, [(0, 1)]))
    entry = dom.section[coords]
    with pytest.raises(TypeError):
        dom.section[coords] = entry
    assert {section_entry_oracle(SIG, coords, j, entry) for j in range(2)} == {None}


@settings(max_examples=20, deadline=None)
@given(small_signatures, st.data())
def test_witness_equals_per_target_oracle(sig, data):
    """For every word s among the first 3,000 normal forms of length <= 4 and
    every factor j, canonical for j or not, `cover_witness` returns the
    oracle's word on the fundamental domain; so it does on the first 3,000
    targets `enumerate_components` builds, which carry their alpha."""
    kernel = list(itertools.islice(kernel_words(sig, 4), 12))
    assume(sig.num_factors and kernel)
    dom = fundamental_domain(sig, data.draw(st.sampled_from(kernel)))
    for letters, _, _ in itertools.islice(iter_words_raw(sig, 4), 3000):
        for j in range(sig.num_factors):
            target = ComponentIndex(j, sig, letters)
            assert cover_witness(dom, target) == cover_witness_oracle(dom, target)
    for target in enumerate_components(sig, 3)[:3000]:
        assert cover_witness(dom, target) == cover_witness_oracle(dom, target)


@settings(max_examples=30, deadline=None)
@given(small_signatures, st.data())
def test_section_proof_agrees_with_the_per_factor_oracle(sig, data):
    """The per-(g, j) oracle accepts every entry a domain derives from its
    kernel word, at every factor."""
    kernel = list(itertools.islice(kernel_words(sig, 4), 12))
    assume(sig.num_factors and kernel)
    dom = fundamental_domain(sig, data.draw(st.sampled_from(kernel)))
    for coords, entry in dom.section.items():
        for j in range(sig.num_factors):
            assert section_entry_oracle(sig, coords, j, entry) is None


def _raised(build):
    try:
        build()
    except (SignatureMismatch, TrivialW) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=30, deadline=None)
@given(small_signatures, st.data())
def test_domain_is_built_from_its_kernel_word_alone(sig, data):
    """The raw constructor takes the signature, the word and an optional
    presentation, and refuses what `fundamental_domain` refuses, with its
    exception and message: a word over another signature, the identity
    word, and a word outside ker alpha.  On a kernel word it derives the
    domain `fundamental_domain` returns, field by field."""
    other = FPSignature(sig.r + 1, sig.factors)
    refused = [(FPWord(other, ((0, 1),)), SignatureMismatch, "word over the wrong signature"),
               (FPWord(sig, ()), TrivialW, "the chosen word must be nontrivial")]
    outside = [FPWord(sig, letters) for letters, al, _ in iter_words_raw(sig, 3)
               if al != sig.identity_tuple()]
    if outside:
        refused.append((data.draw(st.sampled_from(outside)), TrivialW,
                        "the chosen word must lie in the kernel of the quotient"))
    for word, exc, message in refused:
        assert _raised(lambda: FundamentalDomain(sig, word)) == (exc, message)
        assert _raised(lambda: fundamental_domain(sig, word)) == (exc, message)
    kernel = list(itertools.islice(kernel_words(sig, 4), 12))
    assume(sig.num_factors and kernel)
    w = data.draw(st.sampled_from(kernel))
    raw, built = FundamentalDomain(sig, w), fundamental_domain(sig, w)
    assert (raw.core, raw.boundary, dict(raw.section)) \
        == (built.core, built.boundary, dict(built.section))


@pytest.mark.parametrize("r, groups, word", [
    (1, (Z2,), [(0, 1)]),
    (1, (Z2, Z3), [(0, 1), (1, 1), (0, -1), (1, 1), (2, 1), (0, 1), (2, 2)]),
    (2, (symmetric_group(3),), [(1, -2), (2, 3), (0, 1), (2, 4)]),
])
def test_witness_from_section_equals_recomputed_witness(r, groups, word):
    sig = FPSignature(r, groups)
    dom = fundamental_domain(sig, fp_normalize(sig, word))
    assert set(dom.section) == set(itertools.product(*(range(G.order) for G in groups)))
    for coords, ws_inv in dom.section.items():
        assert ws_inv == (dom.word * sigma_word(sig, coords)).inv().letters
    for target in enumerate_components(sig, 4):
        ws = dom.word * sigma_word(sig, target.alpha_coords)
        assert cover_witness(dom, target) == ws.inv() * target.rep
    other = FPSignature(r + 1, groups)
    with pytest.raises(SignatureMismatch):
        cover_witness(dom, ComponentIndex(0, other, ()))


# -- finite covers ------------------------------------------------------------------------

def test_finite_cover_trivial_groups():
    cover = build_finite_cover(FPSignature(1, (trivial_group(),)))
    assert len(cover.fiber) == 1 and finite_cover_transitive_oracle(cover)


def test_finite_cover_sign():
    cover = build_finite_cover(FPSignature(1, (Z2,)))
    assert len(cover.fiber) == 2
    assert finite_cover_transitive_oracle(cover)


def test_finite_cover_regular_orbit():
    cover = build_finite_cover(FPSignature(1, (Z2, Z3)))
    assert len(cover.fiber) == 6
    assert finite_cover_transitive_oracle(cover)
    for name, perm in cover.actions:
        assert sorted(perm) == list(range(6))


STOCK_GROUPS = (trivial_group(), *map(cyclic_group, range(1, 7)),
                *map(dihedral_group, range(1, 5)), *map(symmetric_group, range(5)))


def _relabelled(G: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """G's table under a random permutation of its element indices."""
    perm = list(range(G.order))
    rng.shuffle(perm)
    table = [[0] * G.order for _ in range(G.order)]
    labels = [""] * G.order
    for a in range(G.order):
        labels[perm[a]] = G.labels[a]
        for b in range(G.order):
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return FiniteGroup.from_table(table, labels=labels, name=G.name,
                                  generators=[perm[g] for g in G.generators])


def test_finite_cover_of_every_stock_group_is_transitive():
    for G in STOCK_GROUPS:
        cover = build_finite_cover(FPSignature(1, (G,)))
        assert finite_cover_transitive_oracle(cover)
    # the proof's premise: generators that do not generate are refused
    with pytest.raises(ValueError, match="do not generate"):
        FiniteGroup.from_table(Z4.table, generators=[2])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_finite_cover_transitivity_equals_the_search_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    groups = []
    for _ in range(data.draw(st.integers(1, 3))):
        G = data.draw(st.sampled_from(STOCK_GROUPS))
        groups.append(_relabelled(G, rng) if data.draw(st.booleans()) else G)
    assume(math.prod(G.order for G in groups) <= 2000)
    cover = build_finite_cover(FPSignature(data.draw(st.integers(0, 2)), tuple(groups)))
    assert finite_cover_transitive_oracle(cover)
