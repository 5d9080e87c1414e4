"""Word-indexed coverings, their components, deck actions, and domains.

The big covering attached to a rep has fiber the free-product group itself;
its irreducible components over the j-th curve component are the right
cosets G_j * s, stored canonically by stripping a leading j-factor letter.
Deck transformations over the finite cover are right concatenations by
kernel words of the direct-product quotient; that action on components is
free, which is what every certificate here witnesses on a truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
    iter_words_raw,
    kernel_words,
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
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for _, perm in actions:
                y = perm[x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    deck = 1
    for G in groups:
        deck *= G.order
    return FiniteCover(sig, fiber, tuple(actions), deck, len(seen) == len(fiber))


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

    The stabilizer of Y^j_s is the conjugate s^{-1} G_j s.  For each
    enumerated component, every conjugate s^{-1} g s with g a nonidentity
    j-factor element is built, checked to fix the component through the
    action code path, and checked to lie outside the kernel of the
    direct-product quotient: an exact proof that no nonidentity kernel word,
    of any length, fixes the component.  The report also confirms the
    full-group failure of freeness: each factor letter fixes its own base
    component.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    r = sig.r
    ident = sig.identity_tuple()
    stabilizers = [(j, r + j, [(g, ((r + j, g),)) for g in sig.factor(j).nonidentity()])
                   for j in range(sig.num_factors)]
    kernel_words = components = checks = 0
    for s, al, _ in iter_words_raw(sig, max_len, sorted_grades=False):
        if s and al == ident:
            kernel_words += 1
        s_inv = _inv_letters(sig, s)
        for j, fid, letters in stabilizers:
            if s and s[0][0] == fid:
                continue
            components += 1
            for g, g_letter in letters:
                w = _concat(sig, _concat(sig, s_inv, g_letter), s)
                if _alpha_tuple(sig, w) == ident:
                    raise FreenessViolation(
                        f"conjugate {g} of factor {j} lands in the kernel at s={s}")
                # the candidate must fix its component through the action code
                # path too; anything else is a reduction bug
                if _canon_rep_letters(sig, j, _concat(sig, s, w)) != s:
                    raise FreenessViolation(
                        f"stabilizer candidate failed to fix ({j},{s})")
                checks += 1
    witnesses = []
    for j in range(sig.num_factors):
        G = sig.factor(j)
        if G.order == 1:
            continue
        g = G.nonidentity()[0]
        w = FPWord(sig, ((r + j, g),))
        base = ComponentIndex(j, FPWord(sig, ()))
        if component_action(w, base) != base:
            raise FreenessViolation(
                "expected full-group witness failed: factor letter moved its base")
        witnesses.append(f"g{j + 1}:{G.labels[g]} fixes Y^{j + 1}_e")
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
    guard_ok: bool
    note: str


def find_separating_open(U: InvariantOpen, geom: CoverGeometry,
                         max_len: int = 6) -> SeparatingOpen:
    """Construct a quasi-compact open V with V not inside U and V cap wV
    inside U for every nonidentity enumerated kernel word w.

    Case 1 (some smooth point removed): V is the component through that point
    minus its nodes; translates are disjoint by freeness.  Case 2 (only node
    lifts removed): V is the union of the two components through one removed
    node minus the other nodes; each translate meets V in at most one smooth
    component part, and the double-overlap subcase would force a square root
    of the identity in the torsion-free kernel, so it must never occur.
    """
    if not U.removed:
        raise NoComplement("the open set is the whole covering")
    sig = geom.sig
    smooth = [c for c in U.removed if isinstance(c, SmoothClass)]
    nodes = [c for c in U.removed if isinstance(c, NodeClass)]
    if len(smooth) + len(nodes) != len(U.removed):
        raise ValueError("removed classes must be SmoothClass or NodeClass")

    kernel = list(kernel_words(sig, max_len))

    if smooth:
        cl = smooth[0]
        if cl.coords[cl.j] != sig.factor(cl.j).identity:
            raise ValueError("smooth class coordinates must be trivial at its own factor")
        s = sigma_word(sig, cl.coords)
        c = canonical_component(sig, cl.j, s)
        empty = 0
        for w in kernel:
            moved = _canon_rep_letters(sig, c.j, _concat(sig, c.rep.letters, w.letters))
            if moved == c.rep.letters:
                raise FreenessViolation("case 1 separating open hit a fixed component")
            empty += 1
        return SeparatingOpen(1, (c,), max_len, len(kernel), empty, 0, True,
                              "component through the removed smooth point, nodes deleted")

    cl = nodes[0]
    nid_info = next((ni for ni in geom.node_info if ni[0] == cl.node_id), None)
    if nid_info is None:
        raise ValueError(f"unknown node {cl.node_id}")
    nid, ja, jb, z = nid_info
    u = sigma_word(sig, cl.coords).letters
    c_a, c_b = geom.lift_sides(nid, ja, jb, z, u)
    empty = one_sided = 0
    guard_ok = True
    for w in kernel:
        hit_ba = component_action(w, c_b) == c_a
        hit_ab = component_action(w, c_a) == c_b
        if hit_ba and hit_ab:
            guard_ok = False
            raise FreenessViolation(
                f"excluded double-overlap subcase fired for w={w}: "
                "the kernel would contain a square root of the identity")
        if hit_ba or hit_ab:
            one_sided += 1
        else:
            empty += 1
    return SeparatingOpen(2, (c_a, c_b), max_len, len(kernel), empty, one_sided,
                          guard_ok,
                          "two components through the removed node, other nodes deleted")


# ---------------------------------------------------------------------------
# fundamental domains and coverage witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalDomain:
    """Finite core of a fundamental domain and its boundary lifts.  ``section``
    maps each direct-product element g to the letters of w*sigma(g) and of
    their inverse, which every coverage witness starts from."""

    sig: FPSignature
    word: FPWord
    core: tuple[ComponentIndex, ...]
    boundary: tuple[tuple[str, FPWord, ComponentIndex, ComponentIndex], ...]
    geometry_note: str
    section: dict[tuple[int, ...], tuple[tuple, tuple]] = field(repr=False, compare=False)

    @property
    def size_bound(self) -> int:
        total = 1
        for j in range(self.sig.num_factors):
            total *= self.sig.factor(j).order
        return self.sig.num_factors * total * (1 + self.sig.r)


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

    boundary = []
    seen_lifts: set[tuple[str, tuple]] = set()
    for c in core:
        for nid, ja, jb, z in geom.node_info:
            if ja == c.j:
                G = groups[ja]
                for g in range(G.order):
                    u = _concat(sig, ((sig.r + ja, g),) if g != G.identity else (),
                                c.rep.letters)
                    key = (nid, u)
                    if key in seen_lifts:
                        continue
                    seen_lifts.add(key)
                    a, b = geom.lift_sides(nid, ja, jb, z, u)
                    if b not in core:
                        boundary.append((nid, FPWord(sig, u), a, b))
            if jb == c.j:
                G = groups[jb]
                glue_inv = _inv_letters(sig, geom.glue_letters(z))
                for g in range(G.order):
                    gl = _concat(sig, ((sig.r + jb, g),) if g != G.identity else (),
                                 c.rep.letters)
                    u = _concat(sig, glue_inv, gl)
                    key = (nid, u)
                    if key in seen_lifts:
                        continue
                    seen_lifts.add(key)
                    a, b = geom.lift_sides(nid, ja, jb, z, u)
                    if a not in core:
                        boundary.append((nid, FPWord(sig, u), b, a))

    core_sorted = tuple(sorted(core, key=lambda c: (c.j, shortlex_key(sig, c.rep.letters))))
    boundary_sorted = tuple(sorted(
        boundary, key=lambda b: (b[0], shortlex_key(sig, b[1].letters))))
    return FundamentalDomain(sig, w, core_sorted, boundary_sorted, note, section)


def cover_witness(dom: FundamentalDomain, target: ComponentIndex) -> FPWord:
    """Explicit kernel word carrying a core component onto the target.

    For the target coset representative s with quotient image g, the word
    (w sigma(g))^{-1} s lies in the kernel and moves the core component
    indexed by w sigma(g) onto the target; both facts are asserted."""
    sig = dom.sig
    s = target.rep
    if s.sig != sig:
        raise SignatureMismatch("target over the wrong signature")
    ws, ws_inv = dom.section[_alpha_tuple(sig, s.letters)]
    t = FPWord(sig, _concat(sig, ws_inv, s.letters))
    if _alpha_tuple(sig, t.letters) != sig.identity_tuple():
        raise FreenessViolation("coverage witness fell outside the kernel")
    start = canonical_component(sig, target.j, FPWord(sig, ws))
    if component_action(t, start) != target:
        raise FreenessViolation("coverage witness failed to act correctly")
    return t
