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

The twist data and lattice assignments are plain classes whose fields are
read-only by contract; `CocycleCertificate`, a record whose verdict `passed`
is derived from its fields, is a `typing.NamedTuple`.
"""

from __future__ import annotations

from typing import NamedTuple

from .covering import (
    ComponentIndex,
    component_action,
    enumerate_components,
    generator_letters,
    kernel_generators,
)
from .errors import (
    KernelNotTrivial,
    PresentationMismatch,
    ScopeMismatch,
    SignatureMismatch,
    TransportConflict,
)
from .field import FunctionField, LatticeK, MatrixK, lattice_hermite
from .groups import (
    FiniteGroup,
    FPSignature,
    FPWord,
    _concat,
    _inv_letters,
    iter_grade_states,
    iter_words_raw,
)
from .reps import ContinuousRep, solve_intertwining

FULL = "full"
KERNEL = "kernel"
COCYCLE_LEN = 4  # `descend` and `sp_pipeline` check the cocycle up to this length
LATTICE_LEN = 3  # and list the components of integral transport up to this one


class MeromorphicCocycle:
    """Twist data attached to a representation, over the chosen deck scope."""

    def __init__(self, rep: ContinuousRep, scope: str = FULL):
        self.rep = rep
        self.scope = scope
        self._letter_cache = {}
        self._twist_cache = {(): rep.identity_matrix()}

    @property
    def sig(self) -> FPSignature:
        return self.rep.sig

    @property
    def field(self) -> FunctionField:
        return self.rep.field

    @property
    def rank(self) -> int:
        return self.rep.rank

    def twist(self, w: FPWord) -> MatrixK:
        """H(w) = rho(w)^{-1}: the matrix glued along the deck word w, built
        from its longest memoised prefix u by H(u a) = H(a) H(u).  A word
        with no memoised prefix but the empty one starts from the twist of
        its first letter, so no product is taken with H(()) = 1: a word of
        n unit letters asked cold costs n - 1 products."""
        if w.sig is not self.rep.sig and w.sig != self.rep.sig:
            raise SignatureMismatch("word does not match the representation's signature")
        letters = w.letters
        cache = self._twist_cache
        k = len(letters)
        while letters[:k] not in cache:
            k -= 1
        out = cache[letters[:k]]
        if not k and letters:
            out = cache[letters[:1]] = self.letter_twist(letters[0])
            k = 1
        for i in range(k, len(letters)):
            out = self.letter_twist(letters[i]) * out
            cache[letters[:i + 1]] = out
        return out

    def letter_twist(self, letter: tuple[int, int]) -> MatrixK:
        """H(a) for one letter a, memoised.  H(z^{+-1}) is the rep's inverse
        Z image or the Z image itself, and H(g) = rho(g^{-1}) for a finite
        letter.  A power z^v, |v| >= 2, is one product H(z^a) H(z^{v-a}) of
        two memoised powers: a = v -+ 1 when that power is memoised, so z^3
        asked after z^2 costs one product, else a = +-floor(|v|/2), which
        costs a cold power no more products than square-and-multiply."""
        cached = self._letter_cache.get(letter)
        if cached is not None:
            return cached
        fid, v = letter
        r = self.sig.r
        if fid < r:
            if v == 1:
                out = self.rep.z_inverses[fid]
            elif v == -1:
                out = self.rep.z_images[fid]
            else:
                # powers of one matrix commute, so the order of the factors is free
                d = 1 if v > 0 else -1
                a = v - d if (fid, v - d) in self._letter_cache else d * (abs(v) // 2)
                out = self.letter_twist((fid, a)) * self.letter_twist((fid, v - a))
        else:
            G = self.sig.factor(fid - r)
            out = self.rep.factor_homs[fid - r][G.inverse[v]]
        self._letter_cache[letter] = out
        return out

    def det_valuation(self, w: FPWord) -> int:
        """v(det H(w)) = -sum_i e_i(w) v(det rho(z_i)), e_i(w) the exponent sum
        of z_i in w: see `det_valuation_conserved`."""
        if w.sig is not self.rep.sig and w.sig != self.rep.sig:
            raise SignatureMismatch("word does not match the representation's signature")
        vals = self.rep.z_det_valuations
        r = self.rep.sig.r
        return -sum([v * vals[fid] for fid, v in w.letters if fid < r])

    def twist_map(self, max_len: int) -> dict:
        """Twists of every word in shortlex order, by H(a x) = H(x) H(a) from
        the first unit letter a: the opposite recurrence to `twist`'s.  The
        walk starts from no carry, so a grade-1 word carries its letter twist
        and every longer word costs one product; H[()] is the identity."""
        def step(carry, letter):
            h = self.letter_twist(letter)
            return h if carry is None else carry * h

        H = {letters: carry for letters, _, carry in iter_words_raw(
            self.sig, max_len, carry_step=step)}
        H[()] = self.rep.identity_matrix()
        return H

    def restricted(self) -> "MeromorphicCocycle":
        return MeromorphicCocycle(self.rep, KERNEL)


class CorruptedCocycle(MeromorphicCocycle):
    """Test double: `base` with the twist overridden on one word, which only
    `twist` and `twist_map` see (`letter_twist` and `det_valuation` read the
    rep).  An inherited `restricted()` returns the uncorrupted kernel datum."""

    def __init__(self, base: MeromorphicCocycle, word: FPWord, matrix: MatrixK):
        super().__init__(base.rep, base.scope)
        self.override_word = word
        self.override_matrix = matrix

    def twist(self, w: FPWord) -> MatrixK:
        if w.letters == self.override_word.letters:
            return self.override_matrix
        return super().twist(w)

    def twist_map(self, max_len: int) -> dict:
        out = super().twist_map(max_len)
        if self.override_word.letters in out:
            out[self.override_word.letters] = self.override_matrix
        return out


def datum_from_rep(rep: ContinuousRep) -> MeromorphicCocycle:
    """Twist datum over the full deck group derived from a representation."""
    return MeromorphicCocycle(rep, FULL)


# ---------------------------------------------------------------------------
# cocycle verification
# ---------------------------------------------------------------------------

class CocycleCertificate(NamedTuple):
    max_len: int
    pairs_checked: int
    identity_ok: bool
    witness: tuple[str, str] | None

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.witness is None


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
    # w = parent * a, a its last unit letter: twist_map built H(w) from the
    # front letter instead, so this compares two different products
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
    return CocycleCertificate(max_len, pairs, identity_ok, witness)


def hom_cocycle(c1, c2) -> list[MatrixK]:
    """Basis of twisted morphisms: f with twist2(w) f = f twist1(w) for every
    w in the scope's deck group, exact at every word length.  Both data must
    share a scope, field, signature and presentation.  Both twists are
    anti-homomorphisms, so the conditions on a generating set suffice: the
    generator letters over the full scope, and over the kernel the free basis
    (Kurosh rank 1 - |Q| chi) `kernel_generators`.
    """
    if c1.scope != c2.scope:
        raise ScopeMismatch("twist data over different deck scopes")
    if c1.field != c2.field:
        raise ScopeMismatch("twist data over different coefficient fields")
    sig = c1.sig
    if sig != c2.sig:
        raise ScopeMismatch("twist data over different signatures")
    if c1.rep.presentation != c2.rep.presentation:
        raise PresentationMismatch("twist data over different presentations")
    if c1.scope == FULL:
        words = [FPWord(sig, (letter,)) for letter in generator_letters(sig)]
    else:
        words = kernel_generators(sig)
    pairs = [(c1.twist(w), c2.twist(w)) for w in words]
    return solve_intertwining(c1.field, c1.rank, c2.rank, pairs)


# ---------------------------------------------------------------------------
# integral models by transport along the free action
# ---------------------------------------------------------------------------

def _orbit_key(c: ComponentIndex) -> tuple[int, tuple[int, ...]]:
    """(j, alpha(c) with coordinate j dropped), which names c's orbit under
    the kernel action."""
    al = c.alpha_coords
    return c.j, al[:c.j] + al[c.j + 1:]


class LatticeAssignment:
    """Lattice at each enumerated component, transported from one standard
    lattice per component orbit along the free kernel action.  The orbit
    representatives are derived: per `_orbit_key`, the first of `components`.

    The lattice at c is B(c) A^n with B(c) = `lattice_hermite(H(w))`, where
    w = `transport_word(c)` is the kernel word carrying c's orbit
    representative c0 to c.  ker alpha is free and meets no conjugate of a
    G_j (Kurosh), so it acts freely and w is the only such word: B is well
    defined, and B(c0) is the Hermite form of H(()), the standard lattice
    when H(()) = 1.  Lattices are memoised under (j, letters), which names a
    component once its signature is checked to be the assignment's: a
    component over another one raises `SignatureMismatch`."""

    def __init__(self, cocycle: MeromorphicCocycle, components: tuple[ComponentIndex, ...]):
        first: dict[tuple, ComponentIndex] = {}
        for c in components:
            first.setdefault(_orbit_key(c), c)
        self.cocycle = cocycle
        self.sig = sig = cocycle.sig
        self.orbit_reps = tuple(first.values())
        self.components = components
        self._lattice_cache = {}
        # per orbit key: alpha(c0)_j and the letters of c0^{-1}
        self._heads = {key: (c0.alpha_coords[c0.j], _inv_letters(sig, c0.letters))
                       for key, c0 in first.items()}

    def transport_word(self, c: ComponentIndex) -> FPWord:
        """The unique kernel word carrying the orbit representative to c.

        It is c0^{-1} g c with g = alpha(c0)_j alpha(c)_j^{-1} in G_j.  The
        orbit key fixes alpha off coordinate j, and g fixes coordinate j, so
        alpha(c0^{-1} g c) = e."""
        sig, j, al = self.sig, c.j, c.alpha_coords
        if c.sig is not sig and c.sig != sig:
            raise SignatureMismatch("component does not match the assignment's signature")
        a0, letters = self._heads.get((j, al[:j] + al[j + 1:]), (None, None))
        if a0 is None:
            raise TransportConflict("component lies outside the enumerated orbits")
        G = sig.factors[j]
        g = G.table[a0][G.inverse[al[j]]]
        if g != G.identity:
            letters = _concat(sig, letters, ((sig.r + j, g),))
        return FPWord(sig, _concat(sig, letters, c.letters))

    def lattice_of(self, c: ComponentIndex) -> LatticeK:
        if c.sig is not self.sig and c.sig != self.sig:
            raise SignatureMismatch("component does not match the assignment's signature")
        out = self._lattice_cache.get((c.j, c.letters))
        if out is None:
            out = lattice_hermite(self.cocycle.twist(self.transport_word(c)))
            self._lattice_cache[c.j, c.letters] = out
        return out

    def integral_twist(self, w: FPWord, c: ComponentIndex) -> MatrixK:
        """Basis change B(c w)^{-1} H(w) B(c); integral with integral inverse."""
        src = self.lattice_of(c).basis
        dst = self.lattice_of(component_action(w, c)).basis
        return dst.inverse() * self.cocycle.twist(w) * src


def integralize(c: MeromorphicCocycle, max_len: int) -> LatticeAssignment:
    """The lattice assignment over every component of word length <= max_len,
    which picks the standard lattice on its first component of each orbit and
    transports it along the kernel action; freeness makes this conflict-free.

    The transport condition holds at every kernel word, so nothing is
    checked.  Let c0 be an orbit representative and w a kernel word.  c0's
    transport word is empty, so B(c0) = `lattice_hermite(H(()))`, and H(())
    is the identity matrix seeded in the cocycle's twist cache, whose
    Hermite form is the identity: B(c0) A^n = A^n.  ker alpha is free and
    meets no conjugate of a G_j (Kurosh), so w is the only kernel word
    carrying c0 to c0 w, hence `transport_word(c0 w)` = w and B(c0 w) A^n =
    H(w) A^n, which is the transported lattice H(w) B(c0) A^n.  The same
    equality shows that the basis change `integral_twist(w, c0)` =
    B(c0 w)^{-1} H(w) B(c0) maps A^n onto A^n, so it and its inverse are
    integral: it lies in GL_n(A).  Only data whose H(()) is not the identity
    escape this, and `check_cocycle` refuses those (`identity_ok`).
    """
    if c.scope != KERNEL:
        raise ScopeMismatch("integral transport works over the kernel scope")
    return LatticeAssignment(c, tuple(enumerate_components(c.sig, max_len)))


def det_valuation_conserved(assignment: LatticeAssignment, w: FPWord,
                            c: ComponentIndex) -> bool:
    """v(det H(w)) equals the diagonal-exponent shift between the lattices at
    c and at c w.

    The two sides are computed independently.  The left side is read off the
    letters of w.  H is an anti-homomorphism and det is multiplicative, so
    v(det H(-)) is a homomorphism from the free product to Z.  A finite-factor
    letter g contributes 0: det rho(g) is a root of unity in F_p(t), and F_p
    is algebraically closed in F_p(t), so it lies in F_p^*.  Hence
    v(det H(w)) = -sum_i e_i(w) v(det rho(z_i)), with e_i(w) the exponent sum
    of z_i in w and one memoised determinant per Z image.  The right side
    comes from the two lattices' Hermite forms, `lattice_hermite` of the
    twists along their transport words."""
    dv = assignment.cocycle.det_valuation(w)
    before = sum(assignment.lattice_of(c).diagonal_exponents)
    after = sum(assignment.lattice_of(component_action(w, c)).diagonal_exponents)
    return dv == after - before


# ---------------------------------------------------------------------------
# finite quotients of the twist data
# ---------------------------------------------------------------------------

class FiniteCocycle:
    """Twist data indexed by a finite group, with the same anti-composition
    law as the word-indexed data it came from.  The field and rank are read
    off the first matrix.  A collapse records how many normal forms it
    covered (`words_checked`)."""

    def __init__(self, group: FiniteGroup, mats: tuple[MatrixK, ...], words_checked: int = 0):
        self.group = group
        self.field = mats[0].field
        self.rank = mats[0].rows
        self.mats = mats
        self.words_checked = words_checked

    def check_law(self) -> bool:
        G = self.group
        return (self.mats[G.identity].is_identity()
                and G.hom_failure(self.mats, lambda x, y: y * x) is None)


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
    order decides which fiber a failure names, as in the per-word collapse.
    Kernel words act trivially because the identity's fiber is seeded with
    the identity matrix of the empty word, so an edge out of the identity
    element takes the letter twist itself, with no product.
    """
    sig = c.sig
    if fq.sig != sig:
        raise SignatureMismatch("quotient data does not match the twist datum")
    G = fq.group
    slots: list[MatrixK | None] = [None] * G.order
    slots[G.identity] = c.rep.identity_matrix()

    # the twist composes on the left (anti-law), the quotient image on the right;
    # an edge out of the identity element takes the letter twist itself
    def step(qv, letter):
        qa = G.table[qv][fq.q_letter(letter)]
        mat = c.letter_twist(letter)
        if qv != G.identity:
            mat = mat * slots[qv]
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
    fin = FiniteCocycle(G, tuple(slots), checked)
    if not fin.check_law():
        raise KernelNotTrivial("collapsed data violates the finite composition law")
    return fin
