"""Components, deck actions, freeness, separating opens, domains, witnesses."""

import itertools
import random

import pytest

from nodalcover.covering import (
    CoverGeometry,
    InvariantOpen,
    NodeClass,
    SmoothClass,
    build_finite_cover,
    canonical_component,
    certify_free_action,
    component_action,
    cover_witness,
    enumerate_components,
    find_separating_open,
    fundamental_domain,
    sigma_word,
)
from nodalcover.curves import pi1_presentation
from nodalcover.errors import NoComplement, SignatureMismatch, TrivialW
from nodalcover.groups import (
    FPSignature,
    FPWord,
    alpha,
    cyclic_group,
    enumerate_words,
    fp_normalize,
    symmetric_group,
    trivial_group,
)
from nodalcover.reps import trivial_rep

from helpers import rank1_rep, rank2_rep, random_word, sig_with_pres

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
SIG = FPSignature(1, (Z2, Z3))


# -- canonical components -----------------------------------------------------

def test_coset_absorption():
    s = fp_normalize(SIG, [(1, 1), (0, 2)])
    gs = fp_normalize(SIG, [(1, 1)]) * s  # leading letter merges into the factor
    assert canonical_component(SIG, 0, gs) == canonical_component(SIG, 0, s)
    assert canonical_component(SIG, 0, FPWord(SIG, ())).rep.is_identity()


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
        idx_equal = canonical_component(SIG, j, s1) == canonical_component(SIG, j, s2)
        assert idx_equal == same_coset


# -- the right action ------------------------------------------------------------

def test_action_identity_and_composition():
    rng = random.Random(83)
    e = FPWord(SIG, ())
    for _ in range(100):
        c = canonical_component(SIG, rng.randrange(2), random_word(rng, SIG, 3))
        assert component_action(e, c) == c
        w1, w2 = random_word(rng, SIG, 3), random_word(rng, SIG, 3)
        assert component_action(w2, component_action(w1, c)) == \
            component_action(w1 * w2, c)


def test_factor_letter_stabilizes_base_component():
    base = canonical_component(SIG, 0, FPWord(SIG, ()))
    g = fp_normalize(SIG, [(1, 1)])
    assert component_action(g, base) == base


# -- freeness ----------------------------------------------------------------------

def _direct_pairing(sig, max_len):
    """Oracle: act by every nonempty kernel word on every enumerated component
    and require that it moves it.  Returns (kernel words, components)."""
    kernel = [w for w in enumerate_words(sig, max_len)
              if not w.is_identity() and alpha(w).is_identity()]
    comps = enumerate_components(sig, max_len)
    for w in kernel:
        for c in comps:
            assert component_action(w, c) != c, f"{w} fixes {c}"
    return len(kernel), len(comps)


@pytest.mark.parametrize("r, groups", [(1, (Z2,)), (1, (Z2, Z3)), (2, (Z2,))],
                         ids=["Z^*1*[Z2]", "Z^*1*[Z2,Z3]", "Z^*2*[Z2]"])
def test_free_action_agrees_with_direct_pairing(r, groups):
    sig = FPSignature(r, groups)
    kernel_words, components = _direct_pairing(sig, 4)
    report = certify_free_action(sig, 4)
    assert report.passed and report.strategy == "stabilizer-enumeration"
    assert report.kernel_words == kernel_words
    assert report.components == components
    assert report.full_group_witnesses


def test_free_action_vacuous_without_z_factors():
    sig = FPSignature(0, (Z3,))
    report = certify_free_action(sig, 4)
    assert report.passed and report.kernel_words == 0


def test_max_len_precondition():
    with pytest.raises(ValueError):
        certify_free_action(SIG, 1)


# -- separating opens -----------------------------------------------------------------

def _geom():
    from nodalcover.curves import chain_curve_for_signature

    pres = pi1_presentation(chain_curve_for_signature(1, 2))
    return CoverGeometry.build(pres, SIG)


def test_case_one_disjoint_translates():
    geom = _geom()
    out = find_separating_open(
        InvariantOpen((SmoothClass(0, (0, 2), "pt"),)), geom, max_len=4)
    assert out.case == 1
    assert out.one_sided_meets == 0
    assert out.kernel_words_checked > 0


def test_case_two_subcases_and_guard():
    geom = _geom()
    out = find_separating_open(
        InvariantOpen((NodeClass("n0", (1, 1)),)), geom, max_len=4)
    assert out.case == 2 and out.guard_ok
    assert out.empty_meets + out.one_sided_meets == out.kernel_words_checked


def test_self_node_case_two():
    rep = rank1_rep()
    pres = rep.presentation
    sig = rep.sig
    geom = CoverGeometry.build(pres, sig)
    out = find_separating_open(
        InvariantOpen((NodeClass("x0", (1,)),)), geom, max_len=4)
    assert out.case == 2 and out.guard_ok


def test_no_complement():
    with pytest.raises(NoComplement):
        find_separating_open(InvariantOpen(()), _geom(), 4)


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
            if not w.is_identity() and alpha(w).is_identity():
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


# -- coverage witnesses --------------------------------------------------------------------

def test_witness_identity_on_core():
    sig = FPSignature(1, (Z2,))
    w = fp_normalize(sig, [(0, 1)])
    dom = fundamental_domain(sig, w)
    g = sigma_word(sig, (1,))
    target = canonical_component(sig, 0, w * g)
    assert cover_witness(dom, target).is_identity()


def test_witness_random_targets():
    sig = SIG
    dom = fundamental_domain(sig, fp_normalize(sig, [(0, 1)]))
    rng = random.Random(89)
    for _ in range(200):
        j = rng.randrange(2)
        target = canonical_component(sig, j, random_word(rng, sig, 6))
        t = cover_witness(dom, target)
        assert alpha(t).is_identity()
        start = canonical_component(sig, j, dom.word * sigma_word(sig, alpha(target.rep).coords))
        assert component_action(t, start) == target


def test_witness_every_component_up_to_length():
    sig = FPSignature(1, (Z2,))
    dom = fundamental_domain(sig, fp_normalize(sig, [(0, 1)]))
    for target in enumerate_components(sig, 5):
        cover_witness(dom, target)  # raises on failure


@pytest.mark.parametrize("r, groups, word", [
    (1, (Z2,), [(0, 1)]),
    (1, (Z2, Z3), [(0, 1), (1, 1), (0, -1), (1, 1), (2, 1), (0, 1), (2, 2)]),
    (2, (symmetric_group(3),), [(1, -2), (2, 3), (0, 1), (2, 4)]),
])
def test_witness_from_section_equals_recomputed_witness(r, groups, word):
    sig = FPSignature(r, groups)
    dom = fundamental_domain(sig, fp_normalize(sig, word))
    assert set(dom.section) == set(itertools.product(*(range(G.order) for G in groups)))
    for coords, (ws, ws_inv) in dom.section.items():
        recomputed = dom.word * sigma_word(sig, coords)
        assert ws == recomputed.letters and ws_inv == recomputed.inv().letters
    for target in enumerate_components(sig, 4):
        ws = dom.word * sigma_word(sig, alpha(target.rep).coords)
        assert cover_witness(dom, target) == ws.inv() * target.rep
    other = FPSignature(r + 1, groups)
    with pytest.raises(SignatureMismatch):
        cover_witness(dom, canonical_component(other, 0, FPWord(other, ())))


# -- finite covers ------------------------------------------------------------------------

def test_finite_cover_trivial_groups():
    sig, pres = sig_with_pres(1, (trivial_group(),))
    rep = trivial_rep(pres, rank1_rep().field, (trivial_group(),))
    cover = build_finite_cover(rep)
    assert len(cover.fiber) == 1 and cover.deck_order == 1 and cover.transitive


def test_finite_cover_sign():
    rep = rank1_rep()
    cover = build_finite_cover(rep)
    assert len(cover.fiber) == 2
    assert cover.deck_order == 2
    assert cover.transitive


def test_finite_cover_regular_orbit():
    sig, pres = sig_with_pres(1, (Z2, Z3))
    rep = trivial_rep(pres, rank1_rep().field, (Z2, Z3))
    cover = build_finite_cover(rep)
    assert len(cover.fiber) == 6 == cover.deck_order
    assert cover.transitive
    for name, perm in cover.actions:
        assert sorted(perm) == list(range(6))
