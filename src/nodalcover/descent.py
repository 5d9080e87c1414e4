"""Constant-coefficient descent twists and their integral models.

A deck transformation is right concatenation by a group word u; the stored
assignment twists through the inversion convention, H(u) = rho(u)^{-1}, so
that the composition law reads H(v) H(u) = H(u v): an anti-homomorphism in
the word, which is exactly the cocycle condition once pullback acts
trivially on constant matrices.  The identity word maps to the identity
matrix.  Scopes distinguish data over the whole deck group from data over
the kernel of the direct-product quotient.  Each cocycle memoises its twists
per word and each lattice assignment its lattices per component.  The cocycle
certificate checks the presentation's relations and the letter recurrence of
the stored twists, not every pair of words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covering import ComponentIndex, component_action, enumerate_components
from .errors import (
    KernelNotTrivial,
    ScopeMismatch,
    SignatureMismatch,
    TransportConflict,
)
from .field import INFINITY, FunctionField, LatticeK, MatrixK, lattice_hermite
from .groups import (
    FiniteGroup,
    FPSignature,
    FPWord,
    _alpha_tuple,
    _concat,
    _inv_letters,
    iter_grade_states,
    iter_words_raw,
    kernel_words,
)
from .reps import ContinuousRep, solve_intertwining

FULL = "full"
KERNEL = "kernel"


@dataclass(frozen=True)
class MeromorphicCocycle:
    """Twist data attached to a representation, over the chosen deck scope."""

    rep: ContinuousRep
    scope: str = FULL

    def __post_init__(self):
        object.__setattr__(self, "_letter_cache", {})
        object.__setattr__(self, "_twist_cache", {(): self.rep.identity_matrix()})
        object.__setattr__(self, "_sig_cache", self.rep.sig)

    @property
    def sig(self) -> FPSignature:
        return self._sig_cache

    @property
    def field(self) -> FunctionField:
        return self.rep.field

    @property
    def rank(self) -> int:
        return self.rep.rank

    def twist(self, w: FPWord) -> MatrixK:
        """H(w) = rho(w)^{-1}: the matrix glued along the deck word w, built
        from its longest memoised prefix u by H(u a) = H(a) H(u), as in `twist_map`."""
        if w.sig != self.sig:
            raise SignatureMismatch("word does not match the representation's signature")
        letters = w.letters
        cache = self._twist_cache
        k = len(letters)
        while letters[:k] not in cache:
            k -= 1
        out = cache[letters[:k]]
        for i in range(k, len(letters)):
            out = self.letter_twist(letters[i]) * out
            cache[letters[:i + 1]] = out
        return out

    def letter_twist(self, letter: tuple[int, int]) -> MatrixK:
        cached = self._letter_cache.get(letter)
        if cached is not None:
            return cached
        fid, v = letter
        r = self.sig.r
        if fid < r:
            # H(z^v) = rho(z)^-v: a power of the rep's inverse, or of z itself
            out = self.rep.z_inverses[fid] ** v if v > 0 else self.rep.z_images[fid] ** -v
        else:
            G = self.sig.factor(fid - r)
            out = self.rep.factor_homs[fid - r][G.inverse[v]]
        self._letter_cache[letter] = out
        return out

    def twist_map(self, max_len: int) -> dict:
        """Twists of every enumerated word, built one letter at a time."""
        start = self.rep.identity_matrix()

        def step(carry, letter):
            return self.letter_twist(letter) * carry

        return {letters: carry for letters, _, carry in iter_words_raw(
            self.sig, max_len, carry_init=start, carry_step=step, sorted_grades=False)}

    def restricted(self) -> "MeromorphicCocycle":
        return MeromorphicCocycle(self.rep, KERNEL)


class CorruptedCocycle:
    """Test double: a cocycle with the twist overridden on one word."""

    def __init__(self, base: MeromorphicCocycle, word: FPWord, matrix: MatrixK):
        self.base = base
        self.override_word = word
        self.override_matrix = matrix
        self.scope = base.scope

    @property
    def sig(self):
        return self.base.sig

    def twist(self, w: FPWord) -> MatrixK:
        if w.letters == self.override_word.letters:
            return self.override_matrix
        return self.base.twist(w)

    def twist_map(self, max_len: int) -> dict:
        out = self.base.twist_map(max_len)
        if self.override_word.letters in out:
            out[self.override_word.letters] = self.override_matrix
        return out


def datum_from_rep(rep: ContinuousRep) -> MeromorphicCocycle:
    """Twist datum over the full deck group derived from a representation."""
    return MeromorphicCocycle(rep, FULL)


# ---------------------------------------------------------------------------
# cocycle verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CocycleCertificate:
    scope: str
    max_len: int
    strategy: str
    pairs_checked: int
    identity_ok: bool
    passed: bool
    witness: tuple[str, str] | None


def check_cocycle(c, max_len: int) -> CocycleCertificate:
    """Certify H(v) H(u) = H(u v) for the stored twists of every word up to max_len.

    The certificate checks the presentation's relations (z z^-1 = 1 and each
    factor's table) and the letter recurrence H(w) = H(a) H(parent(w)); by von
    Dyck's theorem these imply the law on every pair of words.  The first
    failed comparison H(v) H(u) != H(u v) gives the witness (u, v).
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1: the relations read the letter twists")
    sig = c.sig
    r = sig.r
    H = c.twist_map(max_len)
    identity_ok = H[()].is_identity()
    checks = [(((i, 1),), ((i, -1),), ()) for i in range(r)]
    for j in range(sig.num_factors):
        G = sig.factor(j)
        units = [g for g in range(G.order) if g != G.identity]
        for g in units:
            for h in units:
                gh = G.table[g][h]
                checks.append((((r + j, g),), ((r + j, h),),
                               ((r + j, gh),) if gh != G.identity else ()))
    # w = parent * a, where a is the unit letter iter_words_raw appended
    for w in H:
        if w and w[-1][0] < r and abs(w[-1][1]) > 1:
            fid, v = w[-1]
            d = 1 if v > 0 else -1
            checks.append((w[:-1] + ((fid, v - d),), ((fid, d),), w))
        elif len(w) > 1:
            checks.append((w[:-1], w[-1:], w))
    witness = None
    pairs = 0
    for u, v, uv in checks:
        pairs += 1
        if H[v] * H[u] != H[uv]:
            witness = (str(FPWord(sig, u)), str(FPWord(sig, v)))
            break
    return CocycleCertificate(c.scope, max_len, "presentation", pairs, identity_ok,
                              identity_ok and witness is None, witness)


def hom_cocycle(c1, c2, max_len: int = 4) -> list[MatrixK]:
    """Basis of twisted morphisms: f with twist2(w) f = f twist1(w).

    Over the full deck group the conditions for the generator words suffice
    (both sides are anti-homomorphisms); over the kernel scope the system is
    assembled from all enumerated kernel words up to the bound.
    """
    if c1.scope != c2.scope:
        raise ScopeMismatch("twist data over different deck scopes")
    if c1.field != c2.field:
        raise ScopeMismatch("twist data over different coefficient fields")
    sig = c1.sig
    if sig != c2.sig:
        raise ScopeMismatch("twist data over different signatures")
    pairs: list[tuple[MatrixK, MatrixK]] = []
    if c1.scope == FULL:
        r = sig.r
        letters = [(i, 1) for i in range(r)]
        for j in range(sig.num_factors):
            G = sig.factor(j)
            letters.extend((r + j, g) for g in G.generators if g != G.identity)
        for letter in letters:
            w = FPWord(sig, (letter,))
            pairs.append((c1.twist(w), c2.twist(w)))
    else:
        for w in kernel_words(sig, max_len):
            pairs.append((c1.twist(w), c2.twist(w)))
    return solve_intertwining(c1.field, c1.rank, c2.rank, pairs)


# ---------------------------------------------------------------------------
# integral models by transport along the free action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeAssignment:
    """Lattice at each enumerated component, transported from one standard
    lattice per component orbit along the free kernel action."""

    cocycle: MeromorphicCocycle
    max_len: int
    orbit_reps: tuple[ComponentIndex, ...]
    components: tuple[ComponentIndex, ...]

    def __post_init__(self):
        object.__setattr__(self, "_lattice_cache", {})

    def transport_word(self, c: ComponentIndex) -> FPWord:
        """The unique kernel word carrying the orbit representative to c."""
        sig = self.cocycle.sig
        al = _alpha_tuple(sig, c.rep.letters)
        key = al[:c.j] + al[c.j + 1:]
        rep0 = None
        for c0 in self.orbit_reps:
            if c0.j != c.j:
                continue
            al0 = _alpha_tuple(sig, c0.rep.letters)
            if al0[:c.j] + al0[c.j + 1:] == key:
                rep0 = (c0, al0)
                break
        if rep0 is None:
            raise TransportConflict("component lies outside the enumerated orbits")
        c0, al0 = rep0
        G = sig.factor(c.j)
        g = G.table[al0[c.j]][G.inverse[al[c.j]]]
        letters = _concat(sig, _concat(
            sig, _inv_letters(sig, c0.rep.letters),
            ((sig.r + c.j, g),) if g != G.identity else ()), c.rep.letters)
        w = FPWord(sig, letters)
        if _alpha_tuple(sig, letters) != sig.identity_tuple():
            raise TransportConflict("transport word escaped the kernel")
        return w

    def lattice_of(self, c: ComponentIndex) -> LatticeK:
        out = self._lattice_cache.get(c)
        if out is None:
            out = lattice_hermite(self.cocycle.twist(self.transport_word(c)))
            self._lattice_cache[c] = out
        return out

    def integral_twist(self, w: FPWord, c: ComponentIndex) -> MatrixK:
        """Basis change B(c w)^{-1} H(w) B(c); integral with integral inverse."""
        src = self.lattice_of(c).basis
        dst = self.lattice_of(component_action(w, c)).basis
        return dst.inverse() * self.cocycle.twist(w) * src


def is_integral_matrix(M: MatrixK) -> bool:
    return all(e.valuation() >= 0 for row in M.entries for e in row)


def is_unimodular_matrix(M: MatrixK) -> bool:
    return is_integral_matrix(M) and M.det().valuation() == 0


def integralize(c: MeromorphicCocycle, max_len: int = 4) -> LatticeAssignment:
    """Pick the standard lattice on one representative per component orbit and
    transport it along the kernel action; freeness makes this conflict-free.

    The returned assignment is verified: transporting by any enumerated kernel
    word maps each orbit representative's lattice onto the lattice stored at
    the moved component, through an integral matrix with integral inverse.
    """
    if c.scope != KERNEL:
        raise ScopeMismatch("integral transport works over the kernel scope")
    sig = c.sig
    comps = enumerate_components(sig, max_len)
    orbit_reps: dict[tuple, ComponentIndex] = {}
    for ci in comps:
        al = _alpha_tuple(sig, ci.rep.letters)
        orbit_reps.setdefault((ci.j, al[:ci.j] + al[ci.j + 1:]), ci)
    assignment = LatticeAssignment(c, max_len, tuple(orbit_reps.values()),
                                   tuple(comps))
    kernel = list(kernel_words(sig, min(max_len, 3)))
    for c0 in assignment.orbit_reps:
        base = assignment.lattice_of(c0)
        for w in kernel:
            moved = component_action(w, c0)
            k = assignment.integral_twist(w, c0)
            if not is_unimodular_matrix(k):
                raise TransportConflict(
                    f"transport by {w} from {c0} is not an integral isomorphism")
            if lattice_hermite(c.twist(w) * base.basis) != assignment.lattice_of(moved):
                raise TransportConflict(
                    f"transported lattice disagrees at {moved}")
    return assignment


def det_valuation_conserved(assignment: LatticeAssignment, w: FPWord,
                            c: ComponentIndex) -> bool:
    """v(det H(w)) equals the diagonal-exponent shift between the lattices at
    c and at c w."""
    dv = assignment.cocycle.twist(w).det().valuation()
    if dv == INFINITY:
        return False
    before = sum(assignment.lattice_of(c).diagonal_exponents)
    after = sum(assignment.lattice_of(component_action(w, c)).diagonal_exponents)
    return int(dv) == after - before


# ---------------------------------------------------------------------------
# finite quotients of the twist data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteCocycle:
    """Twist data indexed by a finite group, with the same anti-composition
    law as the word-indexed data it came from.  A collapse records how many
    normal forms it covered (`words_checked`) and up to which length."""

    group: FiniteGroup
    field: FunctionField
    rank: int
    mats: tuple[MatrixK, ...]
    words_checked: int = 0
    max_len: int = 0

    def check_law(self) -> bool:
        G = self.group
        if not self.mats[G.identity].is_identity():
            return False
        for a in range(G.order):
            for b in range(G.order):
                if self.mats[b] * self.mats[a] != self.mats[G.table[a][b]]:
                    return False
        return True

    def __eq__(self, other):
        return (isinstance(other, FiniteCocycle) and self.group.table == other.group.table
                and self.mats == other.mats)


def descend_inflation(c, fq, max_len: int = 6) -> FiniteCocycle:
    """Collapse an inflated datum to its finite quotient: H must be constant
    on every fiber of the quotient map, with fibers over the identity acting
    trivially.  Every normal form of generator length <= max_len is covered,
    which more than covers the two-preimage sampling the construction requires.

    No word is built.  Once every word up to some length carries its fiber's
    matrix, H(w a) = H(a) H(w) depends only on the edge (q(w), a), so the
    walk over (last letter, q(w)) states of `iter_grade_states` multiplies
    and compares each reachable edge once.  The work grows linearly in
    max_len; `words_checked` is the number of normal forms covered, the sum
    of the state counts.

    The check relies on `iter_grade_states` calling `step` exactly once per
    edge, in the order of the edge's first word in the enumeration: that
    order decides which fiber a failure names, as in the per-word collapse.  Kernel words act trivially because
    the identity's fiber is seeded with the identity matrix of the empty word.
    """
    sig = c.sig
    if fq.sig != sig:
        raise SignatureMismatch("quotient data does not match the twist datum")
    G = fq.group
    slots: list[MatrixK | None] = [None] * G.order
    slots[G.identity] = c.rep.identity_matrix()

    # the twist composes on the left (anti-law), the quotient image on the right
    def step(qv, letter):
        qa = G.table[qv][fq.q_letter(letter)]
        mat = c.letter_twist(letter) * slots[qv]
        if slots[qa] is None:
            slots[qa] = mat
        elif slots[qa] != mat:
            raise KernelNotTrivial(
                f"twist is not constant on the fiber over element {G.labels[qa]}: "
                "the datum does not arise by inflation")
        return qa

    checked = sum(sum(grade.values())
                  for grade in iter_grade_states(sig, max_len, G.identity, step))
    missing = [G.labels[i] for i, m in enumerate(slots) if m is None]
    if missing:
        raise KernelNotTrivial(
            f"enumeration bound too small: no preimage found for {missing}")
    fin = FiniteCocycle(G, c.field, c.rank, tuple(slots), checked, max_len)
    if not fin.check_law():
        raise KernelNotTrivial("collapsed data violates the finite composition law")
    return fin
