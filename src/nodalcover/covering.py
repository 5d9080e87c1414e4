"""Word-indexed coverings, their components, deck actions, and domains.

The big covering attached to a rep has fiber the free-product group itself;
its irreducible components over the j-th curve component are the right
cosets G_j * s.  A `ComponentIndex` holds its factor j and the letters of
its coset's representative, with no word object: it strips a leading
j-factor letter when it is built, so it is canonical by construction, it
reads alpha through the same `alpha_coords` getter as `FPWord`, and its
``rep`` builds the representative's word on read.
Deck transformations over the finite cover are right concatenations by
kernel words of the direct-product quotient.  That kernel has the free basis
`kernel_generators` (Kurosh rank 1 - |Q| chi) and acts freely on components.

The covering is glued over each node of the curve by the node's lifts, and
`node_lifts` holds their one rule: the lift of node n at a word u joins the
component of u over n's first end to that of glue*u over its second end,
glue being n's Z generator at a loop node and empty at a tree node.

The layer computes with words and signatures alone, and no matrix enters
it: a finite cover is built from its signature, and a separating open
through the one deck orbit it removes, a `SmoothClass` or a `NodeClass`.

`ComponentIndex` and `FundamentalDomain` are plain classes whose fields are
read-only by contract; the result records and orbit classes, with no checks,
are `typing.NamedTuple`s, and `SeparatingOpen.empty_meets` is derived from
its counts.
A `FundamentalDomain` builds its core and section when it is built, and its
boundary lifts on their first read, once: coverage witnesses read only the
section.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .curves import Pi1Presentation, chain_curve_for_signature, pi1_presentation
from .errors import SignatureMismatch, TrivialW
from .groups import (
    FPSignature,
    FPWord,
    _concat,
    _inv_letters,
    iter_grade_states,
    iter_words_raw,
    shortlex_key,
)


# ---------------------------------------------------------------------------
# component indices and the right action
# ---------------------------------------------------------------------------

class ComponentIndex:
    """Irreducible component over curve component j: the right coset G_j s.

    An index holds its factor j, the signature and the letters of the
    coset's representative, and the alpha of those letters once known.
    Construction refuses a factor index outside 0..N-1 and strips a leading
    j-factor letter, dropping any alpha it was given, so the stored letters
    are the coset's canonical representative: equal cosets give equal
    indices, whatever letters built them.  `alpha_coords` is `FPWord`'s own
    getter, and ``rep`` builds the representative's `FPWord` on each read."""

    __slots__ = ("j", "sig", "letters", "_alpha")

    def __init__(self, j: int, sig: FPSignature, letters: tuple[tuple[int, int], ...],
                 _alpha: tuple[int, ...] | None = None):
        if not 0 <= j < len(sig.factors):
            raise SignatureMismatch(f"no finite factor {j}")
        if letters and letters[0][0] == sig.r + j:
            letters, _alpha = letters[1:], None
        self.j = j
        self.sig = sig
        self.letters = letters
        self._alpha = _alpha

    alpha_coords = FPWord.alpha_coords

    @property
    def rep(self) -> FPWord:
        return FPWord(self.sig, self.letters, self._alpha)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.j, self.sig, self.letters) == (other.j, other.sig, other.letters)

    def __hash__(self):
        return hash((self.j, self.letters))

    def __str__(self) -> str:
        return f"Y^{self.j + 1}_[{self.rep}]"


def component_action(w: FPWord, c: ComponentIndex) -> ComponentIndex:
    """Right action by concatenation: the coset G_j s moves to G_j s w."""
    sig = c.sig
    if w.sig is not sig and w.sig != sig:
        raise SignatureMismatch("component and word over different signatures")
    return ComponentIndex(c.j, sig, _concat(sig, c.letters, w.letters))


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
    """Free basis of ker alpha, of Kurosh rank 1 - |Q| chi (Q the direct
    product, chi = sum_j 1/|G_j| - r - N + 1): for each q in Q, the words
    sigma(q) z_i sigma(q)^{-1}, and sigma(q) q_j^{-1} sigma(q')^{-1} with q'
    = q cleared at j, for each nontrivial coordinate j of q but its last.
    Each is a normal form of length <= 2N + 1.  ker alpha acts freely on the
    Bass-Serre tree; its quotient graph has vertices Q and each Q/G_j, a
    z_i-loop at each q, and an edge (q, j) from q to qG_j.  The edges with
    q_j trivial or j last nontrivial in q form a spanning tree, lifted by the
    prefixes of the sigma words, and a free action's group is free on the
    non-tree edges' words, as above (Serre, *Trees*, 1980, ch. I); a tree
    edge's word is empty.  A G_j letter g at q walks the edges (q, j), (qg, j)."""
    out = []
    for coords in itertools.product(*(range(G.order) for G in sig.factors)):
        head = sigma_word(sig, coords).letters
        back = _inv_letters(sig, head)
        out += [FPWord(sig, head + ((i, 1),) + back) for i in range(sig.r)]
        # sigma(q) (sigma(q') q_j)^{-1}: the letters of q with q_j moved last
        out += [FPWord(sig, head + _inv_letters(sig, head[:k] + head[k + 1:] + head[k:k + 1]))
                for k in range(len(head) - 1)]
    return out


def enumerate_components(sig: FPSignature, max_len: int) -> list[ComponentIndex]:
    """Component indices over every factor whose canonical representative has
    generator length <= max_len, shortlex-ordered by representative.  The
    indices of one normal form share its letters and the alpha the walk
    computed; no word is built."""
    factors = [(sig.r + j, j) for j in range(sig.num_factors)]
    return [ComponentIndex(j, sig, letters, al) for letters, al, _ in iter_words_raw(sig, max_len)
            for fid, j in factors if not letters or letters[0][0] != fid]


# ---------------------------------------------------------------------------
# the finite cover
# ---------------------------------------------------------------------------

class FiniteCover(NamedTuple):
    """Finite cover with fiber the direct product of the factor groups; each
    group generator acts through the quotient by left multiplication.  The
    action is regular (`build_finite_cover`), so the cover is connected and
    its deck group has order len(fiber)."""

    fiber: tuple[tuple[int, ...], ...]
    actions: tuple[tuple[str, tuple[int, ...]], ...]


def build_finite_cover(sig: FPSignature) -> FiniteCover:
    """The finite cover of the signature `sig`, which is always transitive.

    Each generator of G_j acts on the fiber G_1 x ... x G_N by left
    multiplication on coordinate j.  Constructing a `FiniteGroup` refuses
    designated generators that do not generate the group, so the actions
    generate G_1 x ... x G_N acting on itself by left multiplication: a
    regular, hence transitive, action."""
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
    return FiniteCover(fiber, tuple(actions))


# ---------------------------------------------------------------------------
# node lifts
# ---------------------------------------------------------------------------

def node_lifts(sig: FPSignature, presentation: Pi1Presentation | None = None) -> tuple:
    """(node id, ja, jb, glue letters) for each node of the presentation's
    curve, the chain curve of `sig` by default, after checking the curve and
    rank against `sig`.  The lift of node n at a word u joins the component
    of u over curve component ja, n's first end, to the component of glue*u
    over jb, its second end; glue is z_{i+1} at the i-th loop node and empty
    at a tree node."""
    if presentation is None:
        presentation = pi1_presentation(chain_curve_for_signature(sig.r, sig.num_factors))
    curve = presentation.curve
    if sig.num_factors != len(curve.components):
        raise SignatureMismatch("one factor per curve component required")
    if sig.r != presentation.r:
        raise SignatureMismatch("signature rank differs from the presentation")
    loops = presentation.loop_nodes
    out = []
    for n in curve.nodes:
        ja, jb = (curve.component_ids.index(c) for c, _ in n.ends)
        out.append((n.id, ja, jb, ((loops.index(n.id), 1),) if n.id in loops else ()))
    return tuple(out)


# ---------------------------------------------------------------------------
# freeness certificates
# ---------------------------------------------------------------------------

class FreenessReport(NamedTuple):
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
    return FreenessReport("stabilizer-enumeration", kernel_words, components, checks,
                          tuple(witnesses), True)


# ---------------------------------------------------------------------------
# removed orbits and the separating construction
# ---------------------------------------------------------------------------

class SmoothClass(NamedTuple):
    """Deck orbit of a smooth point: a component family, factor j plus the
    quotient coordinates away from j, normalized to identity at j."""

    j: int
    coords: tuple[int, ...]


class NodeClass(NamedTuple):
    """Deck orbit of a node lift: the node id plus the quotient coordinates."""

    node_id: str
    coords: tuple[int, ...]


class SeparatingOpen(NamedTuple):
    case: int
    components: tuple[ComponentIndex, ...]
    kernel_words_checked: int
    one_sided_meets: int

    @property
    def empty_meets(self) -> int:
        return self.kernel_words_checked - self.one_sided_meets


def find_separating_open(removed: SmoothClass | NodeClass, sig: FPSignature, max_len: int = 6,
                         presentation: Pi1Presentation | None = None) -> SeparatingOpen:
    """Construct a quasi-compact open V through the orbit class `removed`,
    with V cap wV off that orbit for every nonidentity kernel word w, and
    count how the kernel words up to max_len (at least 2) meet V;
    `certify_free_action`'s state walk counts those words.  So V is not
    inside the invariant open that the orbit's removal leaves, and each
    V cap wV is.  The nodes are those of `presentation`'s curve, the chain
    curve of `sig` by default.

    Case 1 (a smooth class): V is the component through a point of the class
    minus its nodes; translates are disjoint by freeness.  Case 2 (a node
    class): V is the union of the components c_a and c_b through a lift in
    the class minus the other nodes, and wV meets V in a smooth part only
    when w carries one onto the other.  The action keeps the curve
    component, so that needs c_a.j = c_b.j = j; then c_b w = c_a means
    w = s_b^{-1} g s_a for some g in G_j, and c_a w = c_b that w is the inverse
    of such a word: the one-sided meets are the kernel words among these
    2|G_j| candidates.  No w meets both ways: c_a w^2 = c_a would put w^2 in
    the stabilizer s_a^{-1} G_j s_a, which meets ker alpha only in 1, and ker
    alpha is free, hence torsion-free, so w = 1.
    """
    lifts = node_lifts(sig, presentation)
    if not isinstance(removed, (SmoothClass, NodeClass)):
        raise ValueError("the removed class must be a SmoothClass or NodeClass")

    kernel = certify_free_action(sig, max_len).kernel_words

    if isinstance(removed, SmoothClass):
        if removed.coords[removed.j] != sig.factor(removed.j).identity:
            raise ValueError("smooth class coordinates must be trivial at its own factor")
        c = ComponentIndex(removed.j, sig, sigma_word(sig, removed.coords).letters)
        return SeparatingOpen(1, (c,), kernel, 0)

    lift = next((rec for rec in lifts if rec[0] == removed.node_id), None)
    if lift is None:
        raise ValueError(f"unknown node {removed.node_id}")
    _, ja, jb, glue = lift
    u = sigma_word(sig, removed.coords).letters
    c_a = ComponentIndex(ja, sig, u)
    c_b = ComponentIndex(jb, sig, _concat(sig, glue, u))
    hits = set()
    if c_a.j == c_b.j:
        G = sig.factor(c_a.j)
        for g in range(G.order):
            g_letters = ((sig.r + c_a.j, g),) if g != G.identity else ()
            w = FPWord(sig, _concat(sig, _concat(
                sig, _inv_letters(sig, c_b.letters), g_letters), c_a.letters))
            if w.letters and w.alpha_coords == sig.identity_tuple() \
                    and shortlex_key(sig, w.letters)[0] <= max_len:
                hits.update((w.letters, _inv_letters(sig, w.letters)))
    return SeparatingOpen(2, (c_a, c_b), kernel, len(hits))


# ---------------------------------------------------------------------------
# fundamental domains and coverage witnesses
# ---------------------------------------------------------------------------

class FundamentalDomain:
    """Finite core of the quasi-compact fundamental domain of the nontrivial
    kernel word w, its read-only ``section`` and its boundary lifts, all
    derived from w and the node structure (a synthetic chain curve by
    default).

    The core holds, for every factor j and direct-product element g, the
    components of ws = w*sigma(g) and of each z_i ws.  ``section`` maps g to
    the letters of ws^{-1}, the exact inverse of ws, and coverage witnesses
    start from it.  w lies in ker alpha, so alpha(ws) = alpha(w) g = g.
    Construction checks w and the node structure against the signature and
    builds the core and the section; ``boundary``, the node lifts joining
    the core to components outside, is built from the stored `node_lifts`
    records on its first read, once."""

    def __init__(self, sig: FPSignature, word: FPWord,
                 presentation: Pi1Presentation | None = None):
        w = word
        if w.sig != sig:
            raise SignatureMismatch("word over the wrong signature")
        if w.is_identity():
            raise TrivialW("the chosen word must be nontrivial")
        if w.alpha_coords != sig.identity_tuple():
            raise TrivialW("the chosen word must lie in the kernel of the quotient")
        lifts = node_lifts(sig, presentation)

        core: set[ComponentIndex] = set()
        section = {}
        for coords in itertools.product(*(range(G.order) for G in sig.factors)):
            tail = _concat(sig, w.letters, sigma_word(sig, coords).letters)
            section[coords] = _inv_letters(sig, tail)
            words = [tail] + [_concat(sig, ((i, 1),), tail) for i in range(sig.r)]
            core.update(ComponentIndex(j, sig, ws) for j in range(sig.num_factors) for ws in words)

        self.sig = sig
        self.word = word
        self.core = tuple(sorted(core, key=lambda c: (c.j, shortlex_key(sig, c.letters))))
        self.section = MappingProxyType(section)
        self._lifts = lifts

    @cached_property
    def boundary(self) -> tuple:
        """(node id, lift word u, core component, outside component) for each
        node lift with one side in the core, ordered by node id, then u in
        shortlex.  A lift reached from both of its sides has both in the
        core, so it is never a boundary lift, and each lift is reached at
        most once per side.  A core component G_j s meets the lifts at g s
        (g in G_j) from a first end on j, whose outside side is glue g s over
        jb, and the lifts at u = glue^{-1} g s from a second end on j, whose
        outside side is u over ja; only that side is built."""
        sig = self.sig
        core = set(self.core)
        boundary = []
        for c in self.core:
            j, G = c.j, sig.factors[c.j]
            for nid, ja, jb, glue in self._lifts:
                if j != ja and j != jb:
                    continue
                glue_inv = _inv_letters(sig, glue)
                for g in range(G.order):
                    gs = _concat(sig, ((sig.r + j, g),) if g != G.identity else (), c.letters)
                    if j == ja:
                        outside = ComponentIndex(jb, sig, _concat(sig, glue, gs))
                        if outside not in core:
                            boundary.append((nid, FPWord(sig, gs), c, outside))
                    if j == jb:
                        u = _concat(sig, glue_inv, gs)
                        outside = ComponentIndex(ja, sig, u)
                        if outside not in core:
                            boundary.append((nid, FPWord(sig, u), c, outside))
        return tuple(sorted(boundary, key=lambda b: (b[0], shortlex_key(sig, b[1].letters))))

    @property
    def size_bound(self) -> int:
        return self.sig.num_factors * len(self.section) * (1 + self.sig.r)


def fundamental_domain(sig: FPSignature, w: FPWord,
                       presentation: Pi1Presentation | None = None) -> FundamentalDomain:
    """The `FundamentalDomain` of the nontrivial kernel word w."""
    return FundamentalDomain(sig, w, presentation)


def cover_witness(dom: FundamentalDomain, target: ComponentIndex) -> FPWord:
    """Explicit kernel word carrying a core component onto the target.

    With s the target's representative, g = alpha(s) and ws^{-1} =
    section[g], the witness is t = ws^{-1} s.  alpha(ws) = g by construction
    of the domain, so t lies in the kernel.  canon_j(ws) ws^{-1} = c is empty
    or one G_j letter, so t carries the core component of ws onto
    canon_j(c s) = s: a component index is canonical by construction, so s
    has no leading j-letter for c to merge with."""
    sig = dom.sig
    if target.sig is not sig and target.sig != sig:
        raise SignatureMismatch("target over the wrong signature")
    return FPWord(sig, _concat(sig, dom.section[target.alpha_coords], target.letters))
