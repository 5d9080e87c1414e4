"""Word-indexed coverings, their components, deck actions, and domains.

The big covering attached to a rep has fiber the free-product group itself;
its irreducible components over the j-th curve component are the right
cosets G_j * s, stored canonically by stripping a leading j-factor letter.
Deck transformations over the finite cover are right concatenations by
kernel words of the direct-product quotient.  That kernel is free (Kurosh),
generated by `kernel_generators`, and acts freely on components.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .curves import Pi1Presentation, chain_curve_for_signature, pi1_presentation
from .errors import (
    FreenessViolation,
    NoComplement,
    SignatureMismatch,
    TrivialW,
)
from .groups import (
    FPSignature,
    FPWord,
    _alpha_tuple,
    _concat,
    _inv_letters,
    iter_grade_states,
    iter_words_raw,
    shortlex_key,
)
from .reps import ContinuousRep


# ---------------------------------------------------------------------------
# component indices and the right action
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class ComponentIndex:
    """Irreducible component over curve component j: the right coset of the
    j-th factor through the stored canonical representative."""

    j: int
    rep: FPWord

    def __hash__(self):
        return hash((self.j, self.rep.letters))

    def __str__(self) -> str:
        return f"Y^{self.j + 1}_[{self.rep}]"


def _canon_rep_letters(sig: FPSignature, j: int, letters):
    fid = sig.r + j
    if letters and letters[0][0] == fid:
        return letters[1:]
    return letters


def canonical_component(sig: FPSignature, j: int, s: FPWord) -> ComponentIndex:
    """Coset representative: absorb a leading j-factor letter.  Words in the
    same right coset of the j-th factor yield equal indices."""
    if not 0 <= j < sig.num_factors:
        raise SignatureMismatch(f"no finite factor {j}")
    if s.sig != sig:
        raise SignatureMismatch("word over the wrong signature")
    return ComponentIndex(j, FPWord(sig, _canon_rep_letters(sig, j, s.letters)))


def component_action(w: FPWord, c: ComponentIndex) -> ComponentIndex:
    """Right action by concatenation: the coset G_j s moves to G_j s w."""
    sig = w.sig
    if c.rep.sig != sig:
        raise SignatureMismatch("component and word over different signatures")
    letters = _concat(sig, c.rep.letters, w.letters)
    return ComponentIndex(c.j, FPWord(sig, _canon_rep_letters(sig, c.j, letters)))


def sigma_word(sig: FPSignature, coords) -> FPWord:
    """Section of the direct-product quotient: the word g_1 g_2 ... g_N."""
    letters = []
    for j, g in enumerate(coords):
        G = sig.factor(j)
        if g != G.identity:
            letters.append((sig.r + j, g))
    return FPWord(sig, tuple(letters))


def generator_letters(sig: FPSignature) -> list[tuple[int, int]]:
    """Letters generating the free product: each z_i, then each factor's
    designated non-identity generators."""
    return [(i, 1) for i in range(sig.r)] + [
        (sig.r + j, g) for j, G in enumerate(sig.factors) for g in G.generators
        if g != G.identity]


def kernel_generators(sig: FPSignature) -> list[FPWord]:
    """Schreier generators sigma(g) x sigma(g alpha(x))^{-1} of ker alpha, for g
    over the direct product and x over `generator_letters`, without empty
    words, repeats or inverses of listed words; each has generator length at
    most 2N + 1.  The sigma(g) are a right transversal containing the empty
    word, so these generate ker alpha (Schreier's lemma): a kernel word
    x_1 ... x_n is the product of the sigma(g_{k-1}) x_k sigma(g_k)^{-1},
    g_k = alpha(x_1 ... x_k), along its coset walk, each a listed word or the
    inverse of one (x_k = z^{-1} gives the inverse of the word at (g_k, z))."""
    letters = generator_letters(sig)
    out: dict[tuple, None] = {}
    for coords in itertools.product(*(range(G.order) for G in sig.factors)):
        head = sigma_word(sig, coords).letters
        for fid, v in letters:
            moved = list(coords)
            if fid >= sig.r:
                j = fid - sig.r
                moved[j] = sig.factor(j).table[coords[j]][v]
            w = _concat(sig, _concat(sig, head, ((fid, v),)),
                        _inv_letters(sig, sigma_word(sig, moved).letters))
            if w and _inv_letters(sig, w) not in out:
                out[w] = None
    return [FPWord(sig, w) for w in out]


def enumerate_components(sig: FPSignature, max_len: int) -> list[ComponentIndex]:
    """Component indices over every factor whose canonical representative has
    generator length <= max_len, shortlex-ordered by representative."""
    r = sig.r
    return [ComponentIndex(j, FPWord(sig, letters))
            for letters, _, _ in iter_words_raw(sig, max_len)
            for j in range(sig.num_factors)
            if not letters or letters[0][0] != r + j]


# ---------------------------------------------------------------------------
# the finite cover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteCover:
    """Finite cover with fiber the direct product of the factor groups; each
    group generator acts through the quotient by left multiplication."""

    sig: FPSignature
    fiber: tuple[tuple[int, ...], ...]
    actions: tuple[tuple[str, tuple[int, ...]], ...]
    deck_order: int
    transitive: bool


def build_finite_cover(rep: ContinuousRep) -> FiniteCover:
    """The finite cover of `rep`'s signature, which is always transitive.

    Each generator of G_j acts on the fiber G_1 x ... x G_N by left
    multiplication on coordinate j.  Constructing a `FiniteGroup` refuses
    designated generators that do not generate the group, so the actions generate G_1 x ... x G_N acting on itself by left
    multiplication: a regular, hence transitive, action."""
    sig = rep.sig
    groups = [sig.factor(j) for j in range(sig.num_factors)]
    fiber = tuple(itertools.product(*(range(G.order) for G in groups)))
    index = {t: i for i, t in enumerate(fiber)}
    actions = []
    for i in range(sig.r):
        actions.append((f"z{i + 1}", tuple(range(len(fiber)))))
    for j, G in enumerate(groups):
        for g in G.generators:
            perm = tuple(
                index[t[:j] + (G.table[g][t[j]],) + t[j + 1:]] for t in fiber)
            actions.append((f"g{j + 1}:{G.labels[g]}", perm))
    return FiniteCover(sig, fiber, tuple(actions), len(fiber), True)


# ---------------------------------------------------------------------------
# node-level geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverGeometry:
    """Gluing data of the covering above each node of the curve.

    The lift of a node indexed by a group word u joins the component of u on
    the first-end side to the component of glue*u on the second-end side,
    where glue is the Z generator of a loop node and trivial on tree nodes.
    """

    presentation: Pi1Presentation
    sig: FPSignature
    node_info: tuple[tuple[str, int, int, int | None], ...]

    @classmethod
    def build(cls, presentation: Pi1Presentation, sig: FPSignature) -> "CoverGeometry":
        if sig.num_factors != len(presentation.curve.components):
            raise SignatureMismatch("one factor per curve component required")
        if sig.r != presentation.r:
            raise SignatureMismatch("signature rank differs from the presentation")
        curve = presentation.curve
        info = []
        for n in curve.nodes:
            ja = curve.component_index(n.ends[0][0])
            jb = curve.component_index(n.ends[1][0])
            z = presentation.loop_index(n.id) if n.id in presentation.loop_nodes else None
            info.append((n.id, ja, jb, z))
        return cls(presentation, sig, tuple(info))

    @classmethod
    def for_signature(cls, sig: FPSignature) -> "CoverGeometry":
        curve = chain_curve_for_signature(sig.r, sig.num_factors)
        return cls.build(pi1_presentation(curve), sig)

    def glue_letters(self, z: int | None):
        return ((z, 1),) if z is not None else ()

    def lift_sides(self, nid: str, ja: int, jb: int, z: int | None, u_letters):
        """Components joined by the lift (nid, u)."""
        sig = self.sig
        a = ComponentIndex(ja, FPWord(sig, _canon_rep_letters(sig, ja, u_letters)))
        bl = _concat(sig, self.glue_letters(z), u_letters)
        b = ComponentIndex(jb, FPWord(sig, _canon_rep_letters(sig, jb, bl)))
        return a, b


# ---------------------------------------------------------------------------
# freeness certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreenessReport:
    sig_description: str
    max_len: int
    strategy: str
    kernel_words: int
    components: int
    checks: int
    full_group_witnesses: tuple[str, ...]
    passed: bool


def certify_free_action(sig: FPSignature, max_len: int) -> FreenessReport:
    """Certify that nonidentity kernel words move every enumerated component.

    The stabilizer of Y^j_s is the conjugate s^{-1} G_j s, and
    alpha(s^{-1} g s) = alpha(s)^{-1} alpha(g) alpha(s) in the direct product,
    so whether a stabilizer conjugate lies in the kernel depends on alpha(s)
    alone.  It never does: for g != e in G_j, the j-coordinate of
    alpha(s^{-1} g s) is a^{-1} g a with a = alpha(s)_j, and a^{-1} g a = e
    would force g = a a^{-1} = e.  Construction proved each factor table a
    group, so this holds at every alpha, and no nonidentity kernel word, of
    any length, fixes a component.  `checks` counts the (component, g)
    instances of that proof; normal forms are counted by (last letter,
    alpha) state.  A component Y^j_s is counted through a
    word s that does not end in a j-factor letter: w -> w^{-1} is a
    length-preserving bijection of normal forms that swaps the first letter
    and the last, so this counts the canonical representatives.  The report
    also lists the full-group failure of freeness: each factor letter fixes
    its own base component, since canonicalisation strips it.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    r = sig.r
    ident = sig.identity_tuple()
    tables = sig._tables

    def step(al, letter):
        fid, v = letter
        if fid < r:
            return al
        j = fid - r
        return al[:j] + (tables[j][al[j]][v],) + al[j + 1:]

    # (components, checks) a word contributes, by the factor id of its last
    # letter: one component per factor it does not end in, one check per
    # nonidentity element of that factor
    all_checks = sum(len(tab) - 1 for tab in tables)
    weight = {fid: (sig.num_factors, all_checks) for fid in range(-1, r)}
    for j, tab in enumerate(tables):
        weight[r + j] = (sig.num_factors - 1, all_checks - (len(tab) - 1))
    kernel_words = components = checks = 0
    for n, grade in enumerate(iter_grade_states(sig, max_len, ident, step)):
        for (last, _, al), count in grade.items():
            if n and al == ident:
                kernel_words += count
            comps, chks = weight[last]
            components += count * comps
            checks += count * chks
    witnesses = [f"g{j + 1}:{G.labels[G.nonidentity()[0]]} fixes Y^{j + 1}_e"
                 for j, G in enumerate(sig.factors) if G.order > 1]
    return FreenessReport(sig.describe(), max_len, "stabilizer-enumeration",
                          kernel_words, components, checks, tuple(witnesses), True)


# ---------------------------------------------------------------------------
# invariant opens and the separating construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothClass:
    """Deck orbit of a smooth point: a component family (factor j plus the
    quotient coordinates away from j, normalized to identity at j) and a
    label marking one orbit of smooth points on it."""

    j: int
    coords: tuple[int, ...]
    label: str = "x"


@dataclass(frozen=True)
class NodeClass:
    """Deck orbit of a node lift: the node id plus the quotient coordinates."""

    node_id: str
    coords: tuple[int, ...]


@dataclass(frozen=True)
class InvariantOpen:
    """Invariant open given by its complement: finitely many orbit classes."""

    removed: tuple


@dataclass(frozen=True)
class SeparatingOpen:
    case: int
    components: tuple[ComponentIndex, ...]
    max_len: int
    kernel_words_checked: int
    empty_meets: int
    one_sided_meets: int
    note: str


def find_separating_open(U: InvariantOpen, geom: CoverGeometry,
                         max_len: int = 6) -> SeparatingOpen:
    """Construct a quasi-compact open V with V not inside U and V cap wV
    inside U for every nonidentity kernel word w, and count how the kernel
    words up to max_len (at least 2) meet V; `certify_free_action`'s state
    walk counts those words.

    Case 1 (some smooth point removed): V is the component through that point
    minus its nodes; translates are disjoint by freeness.  Case 2 (only node
    lifts removed): V is the union of the components c_a and c_b through one
    removed node lift minus the other nodes, and wV meets V in a smooth part
    only when w carries one onto the other.  The action keeps the curve
    component, so that needs c_a.j = c_b.j = j; then c_b w = c_a means
    w = s_b^{-1} g s_a for some g in G_j, and c_a w = c_b that w is the inverse
    of such a word: the one-sided meets are the kernel words among these
    2|G_j| candidates.  No w meets both ways: c_a w^2 = c_a would put w^2 in
    the stabilizer s_a^{-1} G_j s_a, which meets ker alpha only in 1, and ker
    alpha is free, hence torsion-free, so w = 1.
    """
    if not U.removed:
        raise NoComplement("the open set is the whole covering")
    sig = geom.sig
    smooth = [c for c in U.removed if isinstance(c, SmoothClass)]
    nodes = [c for c in U.removed if isinstance(c, NodeClass)]
    if len(smooth) + len(nodes) != len(U.removed):
        raise ValueError("removed classes must be SmoothClass or NodeClass")

    kernel = certify_free_action(sig, max_len).kernel_words

    if smooth:
        cl = smooth[0]
        if cl.coords[cl.j] != sig.factor(cl.j).identity:
            raise ValueError("smooth class coordinates must be trivial at its own factor")
        c = canonical_component(sig, cl.j, sigma_word(sig, cl.coords))
        return SeparatingOpen(1, (c,), max_len, kernel, kernel, 0,
                              "component through the removed smooth point, nodes deleted")

    cl = nodes[0]
    nid_info = next((ni for ni in geom.node_info if ni[0] == cl.node_id), None)
    if nid_info is None:
        raise ValueError(f"unknown node {cl.node_id}")
    c_a, c_b = geom.lift_sides(*nid_info, sigma_word(sig, cl.coords).letters)
    hits = set()
    if c_a.j == c_b.j:
        G = sig.factor(c_a.j)
        for g in range(G.order):
            g_letters = ((sig.r + c_a.j, g),) if g != G.identity else ()
            w = _concat(sig, _concat(sig, _inv_letters(sig, c_b.rep.letters), g_letters),
                        c_a.rep.letters)
            if w and _alpha_tuple(sig, w) == sig.identity_tuple() \
                    and shortlex_key(sig, w)[0] <= max_len:
                hits.update((w, _inv_letters(sig, w)))
    return SeparatingOpen(2, (c_a, c_b), max_len, kernel, kernel - len(hits), len(hits),
                          "two components through the removed node, other nodes deleted")


# ---------------------------------------------------------------------------
# fundamental domains and coverage witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalDomain:
    """Finite core of a fundamental domain and its boundary lifts.  The
    read-only ``section`` maps each direct-product element g to the letters
    of ws = w*sigma(g) and of their inverse, which coverage witnesses start
    from.  Construction proves per entry what `cover_witness` rests on:
    alpha((ws^{-1})^{-1}) = g, and ws^{-1} is the exact inverse of ws.  Each
    entry `fundamental_domain` builds is (x, x^{-1}) with alpha(x) = g."""

    sig: FPSignature
    word: FPWord
    core: tuple[ComponentIndex, ...]
    boundary: tuple[tuple[str, FPWord, ComponentIndex, ComponentIndex], ...]
    geometry_note: str
    section: Mapping[tuple[int, ...], tuple[tuple, tuple]] = field(repr=False, compare=False)

    def __post_init__(self):
        sig = self.sig
        section = dict(self.section)
        for g, (ws, ws_inv) in section.items():
            if _alpha_tuple(sig, _inv_letters(sig, ws_inv)) != g:
                raise FreenessViolation("coverage witness fell outside the kernel")
            if ws_inv != _inv_letters(sig, ws):
                raise FreenessViolation("coverage witness failed to act correctly")
        object.__setattr__(self, "section", MappingProxyType(section))

    @property
    def size_bound(self) -> int:
        return self.sig.num_factors * len(self.section) * (1 + self.sig.r)


def fundamental_domain(sig: FPSignature, w: FPWord,
                       presentation: Pi1Presentation | None = None) -> FundamentalDomain:
    """Materialize the finite core of the quasi-compact fundamental domain.

    The core collects, for every factor j and direct-product element g, the
    components indexed by w*sigma(g) and by each z_i w*sigma(g).  Boundary
    records list the node lifts joining the core to components outside it.
    """
    if w.sig != sig:
        raise SignatureMismatch("word over the wrong signature")
    if w.is_identity():
        raise TrivialW("the chosen word must be nontrivial")
    if _alpha_tuple(sig, w.letters) != sig.identity_tuple():
        raise TrivialW("the chosen word must lie in the kernel of the quotient")
    if presentation is None:
        geom = CoverGeometry.for_signature(sig)
        note = "synthetic chain curve supplied the node structure"
    else:
        geom = CoverGeometry.build(presentation, sig)
        note = "node structure from the supplied presentation"

    groups = [sig.factor(j) for j in range(sig.num_factors)]
    core: set[ComponentIndex] = set()
    section = {}
    for coords in itertools.product(*(range(G.order) for G in groups)):
        tail = _concat(sig, w.letters, sigma_word(sig, coords).letters)
        section[coords] = (tail, _inv_letters(sig, tail))
        for j in range(sig.num_factors):
            core.add(ComponentIndex(
                j, FPWord(sig, _canon_rep_letters(sig, j, tail))))
            for i in range(sig.r):
                shifted = _concat(sig, ((i, 1),), tail)
                core.add(ComponentIndex(
                    j, FPWord(sig, _canon_rep_letters(sig, j, shifted))))

    # a lift reached from both of its sides has both in the core, so it is
    # never a boundary lift, and each lift is reached at most once per side
    boundary = []
    for c in core:
        for nid, ja, jb, z in geom.node_info:
            for side, j in ((0, ja), (1, jb)):
                if j != c.j:
                    continue
                G = groups[j]
                glue_inv = _inv_letters(sig, geom.glue_letters(z)) if side else ()
                for g in range(G.order):
                    u = _concat(sig, glue_inv, _concat(
                        sig, ((sig.r + j, g),) if g != G.identity else (), c.rep.letters))
                    outside = geom.lift_sides(nid, ja, jb, z, u)[1 - side]
                    if outside not in core:
                        boundary.append((nid, FPWord(sig, u), c, outside))

    core_sorted = tuple(sorted(core, key=lambda c: (c.j, shortlex_key(sig, c.rep.letters))))
    boundary_sorted = tuple(sorted(
        boundary, key=lambda b: (b[0], shortlex_key(sig, b[1].letters))))
    return FundamentalDomain(sig, w, core_sorted, boundary_sorted, note, section)


def cover_witness(dom: FundamentalDomain, target: ComponentIndex) -> FPWord:
    """Explicit kernel word carrying a core component onto the target.

    With s the target's representative, g = alpha(s) and (ws, ws^{-1}) =
    section[g], the witness is t = ws^{-1} s.  The section's proof puts t in
    the kernel, and makes c = canon_j(ws) ws^{-1} empty or one G_j letter, so
    t carries the component of ws onto canon_j(c s): that is s unless s has
    a leading j-letter, which canon_j strips; such a target is refused."""
    sig = dom.sig
    s = target.rep.letters
    if target.rep.sig is not sig and target.rep.sig != sig:
        raise SignatureMismatch("target over the wrong signature")
    j = target.j
    if not 0 <= j < sig.num_factors:
        raise SignatureMismatch(f"no finite factor {j}")
    if s and s[0][0] == sig.r + j:
        raise FreenessViolation("coverage witness failed to act correctly")
    return FPWord(sig, _concat(sig, dom.section[_alpha_tuple(sig, s)][1], s))
