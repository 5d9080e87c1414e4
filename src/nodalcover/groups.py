"""Finite groups and normal-form arithmetic in Z^{*r} * G_1 * ... * G_N.

Factor indices: 0 .. r-1 are the Z factors ("z1", ..., "zr"), r .. r+N-1
the finite factors ("g1", ..., "gN").  A word is a sequence of syllables
(factor, value): a nonzero exponent for a Z factor, a non-identity element
index for a finite factor, with adjacent syllables from distinct factors.
The empty sequence is the identity.

Two length notions coexist: len(word) counts syllables, while generator
length charges a Z syllable its |exponent|; enumeration is graded by
generator length, the only grading with finitely many words per grade.
`enumerate_words` lists every normal form up to a bound and `kernel_words`
yields the nonidentity ones in the kernel of the direct-product quotient
alpha, read only through the `alpha_coords` getter, which `FPWord` defines
and `covering.ComponentIndex` shares; `iter_grade_states` counts them by
(last letter, key) state instead.
The word kernels read the factor tables, identities and inverses that each
signature compiles once when it is built.

`FiniteGroup`, `FPSignature` and `FPWord` are plain classes whose fields are
read-only by contract.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .errors import BadElementIndex, BadFactorIndex, SignatureMismatch


# ---------------------------------------------------------------------------
# finite groups by multiplication table
# ---------------------------------------------------------------------------

def generation_walk(start, gens, step: Callable) -> Iterator[tuple]:
    """Breadth-first walk from `start` along `step`: yields (x, k, y) for each
    newly reached y = step(x, gens[k]), frontier by frontier, each frontier in
    discovery order and each x's generators in order.  The edges x -> y form
    a spanning tree of everything reached, and x is always yielded (or is
    `start`) before any edge leaves it."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for k, g in enumerate(gens):
                y = step(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    yield x, k, y
        frontier = nxt


class FiniteGroup:
    """Finite group on indices 0..order-1 given by its multiplication table.

    Construction proves the group laws, so every value of this type is a
    group whose designated generators generate it; the identity and the
    inverses are worked out from the table and take no part in equality."""

    def __init__(self, table: tuple[tuple[int, ...], ...], labels: tuple[str, ...],
                 name: str, generators: tuple[int, ...]):
        """Refuse a table that is not a group under these generators.

        Associativity is tested on the generator columns alone, (ab)s = a(bs)
        for all a, b and each designated generator s (Light's test), after
        the generators are shown to generate.  The set C of c with
        (ab)c = a(bc) for all a, b holds e, by the identity law, and every s.
        It is closed under products: for c, d in C,
        (ab)(cd) = ((ab)c)d = (a(bc))d = a((bc)d) = a(b(cd)).  The closure
        walk reaches every element as x s with x reached and s a generator,
        so C is the whole group: m^2 |S| steps, not m^3."""
        tab = table
        m = len(tab)
        if m == 0 or any(len(row) != m for row in tab):
            raise ValueError("multiplication table must be square and nonempty")
        if any(not 0 <= x < m for row in tab for x in row):
            raise ValueError("table entry out of range")
        e = next((e for e in range(m)
                  if all(tab[e][x] == x and tab[x][e] == x for x in range(m))), None)
        if e is None:
            raise ValueError("table has no identity element")
        inverse = []
        for x, row in enumerate(tab):
            inv = row.index(e) if e in row else None
            if inv is None or tab[inv][x] != e:
                raise ValueError(f"element {x} has no two-sided inverse")
            inverse.append(inv)
        if len(labels) != m or len(set(labels)) != m:
            raise ValueError("labels must be distinct, one per element")
        if any(not 0 <= g < m for g in generators):
            raise ValueError("generator index out of range")
        self.table = table
        self.labels = labels
        self.name = name
        self.generators = generators
        self.identity = e
        self.inverse = tuple(inverse)
        if len(self.closure(generators)) != m:
            raise ValueError("designated generators do not generate the group")
        cols = tuple(zip(*tab))  # cols[c][x] = xc
        for s in generators:
            right_s = cols[s].__getitem__
            for b, col_b in enumerate(cols):
                # (ab)s against a(bs), for every a at once
                if tuple(map(right_s, col_b)) != cols[tab[b][s]]:
                    raise ValueError("table is not associative")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.table, self.labels, self.name, self.generators) == \
            (other.table, other.labels, other.name, other.generators)

    def __hash__(self):
        # equality stays structural; hashing the whole table per call would
        # dominate set-heavy enumerations
        return hash((self.name, len(self.table), self.generators))

    @property
    def order(self) -> int:
        return len(self.table)

    @classmethod
    def from_table(cls, table, labels=None, name="G", generators=None) -> "FiniteGroup":
        """The group of `table`, with labels "0", "1", ... and every element a
        generator unless given."""
        tab = tuple(tuple(int(x) for x in row) for row in table)
        if labels is None:
            labels = range(len(tab))
        if generators is None:
            generators = range(len(tab))
        return cls(tab, tuple(str(s) for s in labels), name,
                   tuple(int(g) for g in generators))

    def nonidentity(self) -> list[int]:
        return [x for x in range(self.order) if x != self.identity]

    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(self.order))

    def hom_failure(self, images, compose: Callable) -> tuple[int, int] | None:
        """First pair (a, s), rows first, with s a designated generator, at
        which a map f out of this group breaks its law: compose(f(a), f(s)) !=
        f(as); None when every such pair holds.  Then the law holds at every
        pair (a, b) when compose is associative: construction proved that the
        generators generate, so b is a product of one or more of them (an
        inverse is a positive power), and by induction on that length
        f(a bs) = f(ab) f(s) = f(a) f(b) f(s) = f(a) f(bs).  For a trivial
        group that lists no generator, the identity stands in.  This is the
        one law scan; callers supply their own compose.  Into a group the law
        forces f(e) = e, by cancelling f(s) in f(e) f(s) = f(s); a map into
        matrices keeps its own identity check."""
        gens = self.generators or (self.identity,)
        for a in range(self.order):
            row = self.table[a]
            fa = images[a]
            for s in gens:
                if compose(fa, images[s]) != images[row[s]]:
                    return a, s
        return None

    def closure(self, seed: Iterable[int]) -> list[int]:
        """Subgroup generated by seed, in discovery order starting from the identity."""
        tab = self.table
        walk = generation_walk(self.identity, tuple(seed), lambda x, g: tab[x][g])
        return [self.identity] + [y for *_, y in walk]

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise BadElementIndex(f"no element labeled {label!r} in {self.name}") from None

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def trivial_group() -> FiniteGroup:
    return FiniteGroup.from_table(((0,),), labels=("e",), name="1", generators=(0,))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup.from_table(table, labels=tuple(str(i) for i in range(n)),
                                  name=f"Z{n}", generators=(1 % n,))


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; index a + n*b encodes rot^a * ref^b."""
    if n < 1:
        raise ValueError("dihedral group needs n >= 1")
    m = 2 * n

    def mul(x, y):
        a1, b1 = x % n, x // n
        a2, b2 = y % n, y // n
        a = (a1 + (a2 if b1 == 0 else -a2)) % n
        return a + n * ((b1 + b2) % 2)

    table = tuple(tuple(mul(x, y) for y in range(m)) for x in range(m))
    labels = tuple((f"r{a}" if b == 0 else f"r{a}s") for b in (0, 1) for a in range(n))
    return FiniteGroup.from_table(table, labels=labels, name=f"D{n}",
                                  generators=(1 % n, n))


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n points by permutation tuples in lexicographic order."""
    if n < 0:
        raise ValueError("symmetric group needs n >= 0")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(x, y):
        px, py = perms[x], perms[y]
        return index[tuple(px[py[i]] for i in range(n))]

    m = len(perms)
    table = tuple(tuple(mul(x, y) for y in range(m)) for x in range(m))
    labels = tuple("".join(str(v) for v in p) for p in perms)
    gens = []
    if n >= 2:
        gens.append(index[tuple([1, 0] + list(range(2, n)))])
    if n >= 3:
        gens.append(index[tuple(list(range(1, n)) + [0])])
    return FiniteGroup.from_table(table, labels=labels, name=f"S{n}",
                                  generators=tuple(gens) or (0,))


def product_subgroup(G: FiniteGroup, H: FiniteGroup,
                     pairs: Iterable[tuple[int, int]],
                     name: str | None = None) -> tuple[FiniteGroup, tuple[tuple[int, int], ...]]:
    """Subgroup of G x H generated by the given pairs, as a fresh table group.

    Returns the group together with its elements as (g, h) pairs, aligned with
    the element indices, so both projections stay available.
    """
    pairs = [(int(g), int(h)) for g, h in pairs]
    for g, h in pairs:
        if not 0 <= g < G.order or not 0 <= h < H.order:
            raise BadElementIndex("generator pair out of range")
    ident = (G.identity, H.identity)
    walk = generation_walk(ident, pairs, lambda x, p: (G.table[x[0]][p[0]], H.table[x[1]][p[1]]))
    elems = [ident] + [y for *_, y in walk]
    elems.sort()
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(
        tuple(index[(G.table[a1][a2], H.table[b1][b2])] for (a2, b2) in elems)
        for (a1, b1) in elems)
    labels = tuple(f"({G.labels[a]},{H.labels[b]})" for (a, b) in elems)
    gens = tuple(index[p] for p in dict.fromkeys(pairs))
    grp = FiniteGroup.from_table(table, labels=labels,
                                 name=name or f"{G.name}x{H.name}|gen",
                                 generators=gens)
    return grp, tuple(elems)


# ---------------------------------------------------------------------------
# signatures and words
# ---------------------------------------------------------------------------

class FPSignature:
    """Shape of the free product: r Z factors and a tuple of finite factors."""

    def __init__(self, r: int, factors: tuple[FiniteGroup, ...] = ()):
        if r < 0:
            raise ValueError("r must be nonnegative")
        if r == 0 and not factors:
            raise ValueError("empty signature: need r >= 1 or at least one factor")
        self.r = r
        self.factors = factors
        # compiled tables the word kernels index by j = fid - r
        self._tables = tuple(G.table for G in factors)
        self._inverses = tuple(G.inverse for G in factors)
        self._idents = tuple(G.identity for G in factors)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.r, self.factors) == (other.r, other.factors)

    def __hash__(self):
        return hash((self.r, len(self.factors)))

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def factor(self, j: int) -> FiniteGroup:
        if not 0 <= j < len(self.factors):
            raise BadFactorIndex(f"no finite factor {j}")
        return self.factors[j]

    def identity_tuple(self) -> tuple[int, ...]:
        return self._idents

    @cached_property
    def _letter_strings(self) -> tuple[tuple[str, ...], ...]:
        """Per finite factor j, the string "g{j+1}:label" of each element's
        letter, built on the first word this signature formats."""
        return tuple(tuple(f"g{j + 1}:{label}" for label in G.labels)
                     for j, G in enumerate(self.factors))

    def describe(self) -> str:
        names = ",".join(G.name for G in self.factors)
        return f"Z^*{self.r} * [{names}]"


class FPWord:
    """Normal-form element of the free product.

    Its fields are read-only by contract, not by ``frozen``: words are built
    once per normal form on the hot paths, and ``frozen`` makes construction
    about 3.5 times dearer.  An AST guard in `tests/test_stdlib_only.py`
    refuses any store to them outside this class.

    ``_alpha`` holds the word's image under the quotient alpha once it is
    known, and `alpha_coords` is the one accessor of that image: the word
    walk passes the coordinates it already has, and any other word computes
    them on the first read.  It takes no part in equality or hashing.  A
    `covering.ComponentIndex` holds ``sig``, ``letters`` and ``_alpha`` too
    and reads its alpha through this same getter."""

    __slots__ = ("sig", "letters", "_alpha")

    def __init__(self, sig: FPSignature, letters: tuple[tuple[int, int], ...],
                 _alpha: tuple[int, ...] | None = None):
        self.sig = sig
        self.letters = letters
        self._alpha = _alpha

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sig, self.letters) == (other.sig, other.letters)

    def __hash__(self):
        return hash(self.letters)

    @property
    def alpha_coords(self) -> tuple[int, ...]:
        """The coordinates of alpha(self), one per finite factor: those the
        word walk passed, or `_alpha_tuple` of the letters on first read."""
        al = self._alpha
        if al is None:
            al = self._alpha = _alpha_tuple(self.sig, self.letters)
        return al

    def __len__(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "FPWord") -> "FPWord":
        if self.sig != other.sig:
            raise SignatureMismatch("words over different signatures")
        return FPWord(self.sig, _concat(self.sig, self.letters, other.letters))

    def inv(self) -> "FPWord":
        return FPWord(self.sig, _inv_letters(self.sig, self.letters))

    def __str__(self) -> str:
        return format_word(self)


def _normalize_letters(sig: FPSignature, raw) -> tuple[tuple[int, int], ...]:
    """Normal form of an arbitrary letter sequence: each raw letter is
    validated, identity letters and zero exponents are dropped, and the rest
    are multiplied by `_concat`, neighbours pairwise in rounds that halve
    their number, so a sequence of n letters costs O(n log n)."""
    r = sig.r
    tables, idents = sig._tables, sig._idents
    words = []
    for fid, v in raw:
        if not 0 <= fid < r + len(tables):
            raise BadFactorIndex(f"factor id {fid} out of range")
        if fid >= r:
            j = fid - r
            if not 0 <= v < len(tables[j]):
                raise BadElementIndex(f"element {v} out of range for factor {j}")
            if v == idents[j]:
                continue
        elif v == 0:
            continue
        words.append(((fid, v),))
    while len(words) > 1:
        pairs = iter(words)
        words = [_concat(sig, a, next(pairs, ())) for a in pairs]
    return words[0] if words else ()


def _inv_letters(sig: FPSignature, letters) -> tuple[tuple[int, int], ...]:
    r = sig.r
    inverses = sig._inverses
    return tuple([(fid, -v) if fid < r else (fid, inverses[fid - r][v])
                  for fid, v in reversed(letters)])


def _concat(sig: FPSignature, a, b) -> tuple[tuple[int, int], ...]:
    """Product of two normal forms: only the junction can simplify.

    One walk meets the junction from both sides, i down a and k up b: the
    pair a[i], b[k] of one factor cancels, or merges into the one letter of
    the display (*a[:i], (fid, g), *b[k + 1:]).  After a cancellation the
    walk stops on one test, when a is used up, b is used up, or the next
    pair's factors differ."""
    if not a or not b or a[-1][0] != b[0][0]:
        return a + b
    r = sig.r
    tables, idents = sig._tables, sig._idents
    i, k, nb = len(a), 0, len(b)
    while True:
        i -= 1
        fid, v = b[k]
        if fid < r:
            g = a[i][1] + v
            if g:
                return (*a[:i], (fid, g), *b[k + 1:])
        else:
            g = tables[fid - r][a[i][1]][v]
            if g != idents[fid - r]:
                return (*a[:i], (fid, g), *b[k + 1:])
        k += 1
        if not i or k == nb or a[i - 1][0] != b[k][0]:
            return a[:i] + b[k:]


def fp_normalize(sig: FPSignature, raw) -> FPWord:
    """Canonical normal form of an arbitrary letter sequence; idempotent."""
    return FPWord(sig, _normalize_letters(sig, raw))


def _alpha_tuple(sig: FPSignature, letters) -> tuple[int, ...]:
    """The quotient alpha onto the direct product: kills Z letters and
    multiplies the rest factorwise.  Words read it through `alpha_coords`."""
    r = sig.r
    tables = sig._tables
    coords = list(sig._idents)
    for fid, v in letters:
        if fid >= r:
            j = fid - r
            coords[j] = tables[j][coords[j]][v]
    return tuple(coords)


# ---------------------------------------------------------------------------
# graded enumeration
# ---------------------------------------------------------------------------

def _letter_key(r: int, letter: tuple[int, int]):
    fid, v = letter
    if fid < r:
        return (fid, abs(v), 0 if v > 0 else 1)
    return (fid, v, 0)


def shortlex_key(sig: FPSignature, letters) -> tuple:
    r = sig.r
    glen = sum(abs(v) if fid < r else 1 for fid, v in letters)
    return (glen, tuple(_letter_key(r, l) for l in letters))


class _AlphaSteps(dict):
    """alpha(u x) by alpha(x), for one finite letter u on coordinate
    ``coord`` whose element has table row ``row``, filled on first use.
    ``shared`` is the walk's one tuple per quotient element, so words that
    keep their alpha share it."""

    __slots__ = ("coord", "row", "shared")

    def __init__(self, coord: int, row: tuple[int, ...], shared: dict):
        super().__init__()
        self.coord, self.row, self.shared = coord, row, shared

    def __missing__(self, al):
        j = self.coord
        moved = al[:j] + (self.row[al[j]],) + al[j + 1:]
        moved = self[al] = self.shared.setdefault(moved, moved)
        return moved


def iter_words_raw(sig: FPSignature, max_len: int,
                   carry_init=None,
                   carry_step: Callable | None = None,
                   sorted_grades: bool = True) -> Iterator[tuple]:
    """All normal forms of generator length <= max_len, in shortlex order.

    Yields (letters, alpha_coords, carry).  Every normal form of length n+1
    is u x for exactly one unit first letter u and one word x of length n,
    so grade n+1 is built in blocks by first letter, in `_letter_key` rank
    order, and needs no sort.  A block z_i^{+-1} or a finite letter of
    factor f prefixes, in grade order, every word of grade n that does not
    start with that factor; the block z_i^{+-k}, k >= 2, rewrites the first
    letter of grade n's z_i^{+-(k-1)} block, and those blocks lie in grade n
    in the same rank order.  The optional carry threads any multiplicative
    bookkeeping (matrix evaluation, quotient images) from the back:
    carry(u x) = carry_step(carry(x), u).  `sorted_grades` must be True,
    and a negative bound is refused.

    A grade is held as parallel lists of letters, alphas and carries (no
    carry list without a carry_step), extended a whole block at a time, and
    yielded through `zip`, so no tuple is kept per word.  A Z letter keeps
    alpha; a finite letter's step is looked up in a table kept for this walk
    (`_AlphaSteps`), so every alpha the walk yields is one shared tuple per
    quotient element.
    """
    if not sorted_grades:
        raise ValueError("iter_words_raw yields shortlex-sorted grades only")
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    r = sig.r
    step = carry_step
    ident = sig.identity_tuple()
    words: list = [()]
    alphas: list = [ident]
    carries: list = [carry_init]
    yield (), ident, carry_init
    # per factor id, in rank order: its unit letters, their 1-tuples, and
    # their alpha steps (None for a Z factor, whose letters keep alpha)
    shared = {ident: ident}
    blocks = [(i, ((i, 1), (i, -1)), (((i, 1),), ((i, -1),)), None) for i in range(r)]
    for j, (tab, e) in enumerate(zip(sig._tables, sig._idents)):
        units = [(r + j, g) for g in range(len(tab)) if g != e]
        blocks.append((r + j, units, [(u,) for u in units],
                       [_AlphaSteps(j, tab[g], shared) for _, g in units]))
    nones = itertools.repeat(None)
    spans: dict = {}  # factor id -> (start, end) of the words it starts
    for _ in range(max_len):
        nw: list = []
        na: list = []
        nc: list = []
        nspans: dict = {}
        for fid, units, heads, moves in blocks:
            start = len(nw)
            lo, hi = spans.get(fid, (0, 0))
            if lo == hi:
                rest_w, rest_a, rest_c = words, alphas, carries
            else:
                rest_w, rest_a = words[:lo] + words[hi:], alphas[:lo] + alphas[hi:]
                rest_c = carries[:lo] + carries[hi:] if step else carries
            nw += [head + x for head in heads for x in rest_w]
            if moves is None:
                na += rest_a  # z_i and z_i^-1 keep alpha
                na += rest_a
            else:
                na += [move[al] for move in moves for al in rest_a]
            if step:
                nc += [step(c, u) for u in units for c in rest_c]
            if fid < r and lo < hi:
                # z_i^{+-k} x grows to z_i^{+-(k+1)} x
                block = words[lo:hi]
                nw += [((fid, x[0][1] + 1),) + x[1:] if x[0][1] > 0 else
                       ((fid, x[0][1] - 1),) + x[1:] for x in block]
                na += alphas[lo:hi]
                if step:
                    up, down = units
                    nc += [step(c, up if x[0][1] > 0 else down)
                           for c, x in zip(carries[lo:hi], block)]
            nspans[fid] = (start, len(nw))
        words, alphas, carries, spans = nw, na, nc, nspans
        yield from zip(words, alphas, carries if step else nones)


def iter_grade_states(sig: FPSignature, max_len: int, key_init,
                      key_step: Callable) -> Iterator[dict]:
    """Normal forms of each generator length 0..max_len, counted by state.

    Yields one dict {(last, sign, key): count} per grade.  `last` is the
    factor id of the last letter (-1 for the identity), `sign` the sign of
    its exponent for a Z letter (0 otherwise), and `key` is threaded along
    appended unit letters by key_step(key, letter), which runs once per
    distinct (key, letter).  The children of a word depend on its state
    alone, so each state's list of child states is built once, in the first
    grade that holds it, and every later grade only adds the state's count
    to each stored child: a grade costs its number of (state, child) edges,
    not its number of words.  States appear in the order of their first
    word in the append walk: each word of a grade in turn takes z_i^{+1},
    z_i^{-1} for each i (after z_i, only the sign that grows it), then each
    finite letter of another factor.
    """
    r = sig.r
    finite = [(r + j, [(r + j, g) for g in range(len(tab)) if g != ident])
              for j, (tab, ident) in enumerate(zip(sig._tables, sig._idents))]
    steps: dict = {}
    children_of: dict = {}
    grade = {(-1, 0, key_init): 1}
    yield grade
    for _ in range(max_len):
        nxt: dict = {}
        for state, n in grade.items():
            children = children_of.get(state)
            if children is None:
                last, sign, key = state
                letters = [(i, d) for i in range(r)
                           for d in ((sign,) if last == i else (1, -1))]
                letters += [letter for fid, ext in finite if fid != last for letter in ext]
                children = children_of[state] = []
                for letter in letters:
                    edge = (key, letter)
                    if edge not in steps:
                        steps[edge] = key_step(key, letter)
                    fid, v = letter
                    children.append((fid, v if fid < r else 0, steps[edge]))
            for child in children:
                nxt[child] = nxt.get(child, 0) + n
        yield nxt
        grade = nxt


def enumerate_words(sig: FPSignature, max_len: int) -> list[FPWord]:
    """Shortlex list of normal forms with generator length <= max_len, each
    carrying its alpha."""
    return [FPWord(sig, letters, al) for letters, al, _ in iter_words_raw(sig, max_len)]


def kernel_words(sig: FPSignature, max_len: int) -> Iterator[FPWord]:
    """Nonidentity words of generator length <= max_len in the kernel of
    alpha, lazily and in shortlex order, each carrying its alpha."""
    ident = sig.identity_tuple()
    for letters, al, _ in iter_words_raw(sig, max_len):
        if letters and al == ident:
            yield FPWord(sig, letters, al)


def first_kernel_word(sig: FPSignature) -> FPWord | None:
    """The shortlex-first nonidentity word in the kernel of alpha, in closed
    form; None exactly when the kernel is trivial.

    z1 has generator length 1 and the least letter key, so it is first when
    r >= 1.  With r = 0, every factor met in a kernel word appears at least
    twice and never twice in a row, so no word of length 2 or 3 lies in the
    kernel, and one of length 4 has the shape a b a' b' with a' = a^-1 and
    b' = b^-1 from two factors.  The least such word takes g and h, the
    smallest nonidentity elements of the first two nontrivial factors: g h
    g^-1 h^-1.  With fewer than two nontrivial factors and r = 0 the group
    is one finite factor and alpha is injective."""
    if sig.r:
        return FPWord(sig, ((0, 1),))
    nontrivial = [(j, G) for j, G in enumerate(sig.factors) if G.order > 1][:2]
    if len(nontrivial) < 2:
        return None
    (j1, G), (j2, H) = nontrivial  # with r = 0, factor j has letter id j
    g, h = G.nonidentity()[0], H.nonidentity()[0]
    return FPWord(sig, ((j1, g), (j2, h), (j1, G.inverse[g]), (j2, H.inverse[h])))


# ---------------------------------------------------------------------------
# word strings: "z1^2 * g1:a * z3^-1"
# ---------------------------------------------------------------------------

def format_word(w: FPWord) -> str:
    if not w.letters:
        return "e"
    r = w.sig.r
    finite = w.sig._letter_strings
    return " * ".join([finite[fid - r][v] if fid >= r
                       else f"z{fid + 1}" if v == 1 else f"z{fid + 1}^{v}"
                       for fid, v in w.letters])


def _token_int(token: str, text: str, signed: bool = False) -> int:
    """The integer written in ASCII digits 0-9 (after one minus sign if
    `signed`), refused with the word token that holds it.  int() alone also
    reads '1_0' as 10, '٣' as 3 and ' 2' as 2."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"cannot parse word token {token!r}")
    return int(text)


def parse_word(sig: FPSignature, s: str) -> FPWord:
    s = s.strip()
    if s in ("", "e", "1"):
        return FPWord(sig, ())
    raw = []
    for token in s.split("*"):
        token = token.strip()
        if token.startswith("z"):
            body = token[1:]
            if "^" in body:
                idx_s, _, exp_s = body.partition("^")
                idx, exp = _token_int(token, idx_s), _token_int(token, exp_s, signed=True)
            else:
                idx, exp = _token_int(token, body), 1
            if not 1 <= idx <= sig.r:
                raise BadFactorIndex(f"no Z factor z{idx}")
            raw.append((idx - 1, exp))
        elif token.startswith("g"):
            head, _, label = token.partition(":")
            j = _token_int(token, head[1:])
            if not 1 <= j <= sig.num_factors:
                raise BadFactorIndex(f"no finite factor g{j}")
            G = sig.factor(j - 1)
            if label in G.labels:
                v = G.label_index(label)
            else:
                v = _token_int(token, label)
                if not 0 <= v < G.order:
                    raise BadElementIndex(f"element {label!r} out of range for g{j}")
            raw.append((sig.r + j - 1, v))
        else:
            raise ValueError(f"cannot parse word token {token!r}")
    return fp_normalize(sig, raw)
