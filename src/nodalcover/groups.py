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
yields the nonidentity ones in the kernel of the direct-product quotient.
The word kernels read the factor tables, identities and inverses that each
signature compiles once when it is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import BadElementIndex, BadFactorIndex, SignatureMismatch


# ---------------------------------------------------------------------------
# finite groups by multiplication table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class FiniteGroup:
    """Finite group on indices 0..order-1 given by its multiplication table."""

    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    name: str
    generators: tuple[int, ...]
    identity: int
    inverse: tuple[int, ...]

    def __hash__(self):
        # equality stays structural; hashing the whole table per call would
        # dominate set-heavy enumerations
        return hash((self.name, len(self.table), self.generators))

    @property
    def order(self) -> int:
        return len(self.table)

    @classmethod
    def from_table(cls, table, labels=None, name="G", generators=None) -> "FiniteGroup":
        tab = tuple(tuple(int(x) for x in row) for row in table)
        m = len(tab)
        if m == 0 or any(len(row) != m for row in tab):
            raise ValueError("multiplication table must be square and nonempty")
        for row in tab:
            for x in row:
                if not 0 <= x < m:
                    raise ValueError("table entry out of range")
        identity = None
        for e in range(m):
            if all(tab[e][x] == x and tab[x][e] == x for x in range(m)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        inverse = []
        for x in range(m):
            inv = next((y for y in range(m) if tab[x][y] == identity), None)
            if inv is None or tab[inv][x] != identity:
                raise ValueError(f"element {x} has no two-sided inverse")
            inverse.append(inv)
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                        raise ValueError("table is not associative")
        if labels is None:
            labels = tuple(str(i) for i in range(m))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != m or len(set(labels)) != m:
                raise ValueError("labels must be distinct, one per element")
        if generators is None:
            generators = tuple(range(m))
        else:
            generators = tuple(int(g) for g in generators)
            for g in generators:
                if not 0 <= g < m:
                    raise ValueError("generator index out of range")
        grp = cls(tab, labels, name, generators, identity, tuple(inverse))
        if generators != tuple(range(m)) and len(grp.closure(generators)) != m:
            raise ValueError("designated generators do not generate the group")
        return grp

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def nonidentity(self) -> list[int]:
        return [x for x in range(self.order) if x != self.identity]

    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(self.order))

    def closure(self, seed: Iterable[int]) -> list[int]:
        """Subgroup generated by seed, in discovery order starting from the identity."""
        seen = {self.identity}
        out = [self.identity]
        frontier = [self.identity]
        gens = [g for g in seed]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.table[x][g]
                    if y not in seen:
                        seen.add(y)
                        out.append(y)
                        nxt.append(y)
            frontier = nxt
        return out

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
    seen = {ident}
    elems = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for (a, b) in frontier:
            for (g, h) in pairs:
                y = (G.table[a][g], H.table[b][h])
                if y not in seen:
                    seen.add(y)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
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

@dataclass(frozen=True, eq=True)
class FPSignature:
    """Shape of the free product: r Z factors and a tuple of finite factors."""

    r: int
    factors: tuple[FiniteGroup, ...] = ()

    def __hash__(self):
        return hash((self.r, len(self.factors)))

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        if self.r == 0 and not self.factors:
            raise ValueError("empty signature: need r >= 1 or at least one factor")
        # compiled tables the word kernels index by j = fid - r
        object.__setattr__(self, "_tables", tuple(G.table for G in self.factors))
        object.__setattr__(self, "_inverses", tuple(G.inverse for G in self.factors))
        object.__setattr__(self, "_idents", tuple(G.identity for G in self.factors))

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def factor(self, j: int) -> FiniteGroup:
        if not 0 <= j < len(self.factors):
            raise BadFactorIndex(f"no finite factor {j}")
        return self.factors[j]

    def identity_tuple(self) -> tuple[int, ...]:
        return self._idents

    def describe(self) -> str:
        names = ",".join(G.name for G in self.factors)
        return f"Z^*{self.r} * [{names}]"


@dataclass(frozen=True, eq=True)
class FPWord:
    """Normal-form element of the free product."""

    sig: FPSignature
    letters: tuple[tuple[int, int], ...]

    def __hash__(self):
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "FPWord") -> "FPWord":
        return fp_mul(self, other)

    def inv(self) -> "FPWord":
        return FPWord(self.sig, _inv_letters(self.sig, self.letters))

    def __str__(self) -> str:
        return format_word(self)


def _normalize_letters(sig: FPSignature, raw) -> tuple[tuple[int, int], ...]:
    r = sig.r
    tables, idents = sig._tables, sig._idents
    out: list[tuple[int, int]] = []
    for fid, v in raw:
        if not 0 <= fid < r + len(tables):
            raise BadFactorIndex(f"factor id {fid} out of range")
        if fid < r:
            if v == 0:
                continue
        else:
            j = fid - r
            tab = tables[j]
            if not 0 <= v < len(tab):
                raise BadElementIndex(f"element {v} out of range for factor {j}")
            if v == idents[j]:
                continue
        if out and out[-1][0] == fid:
            pv = out.pop()[1]
            if fid < r:
                e = pv + v
                if e:
                    out.append((fid, e))
            else:
                g = tab[pv][v]
                if g != idents[j]:
                    out.append((fid, g))
        else:
            out.append((fid, v))
    return tuple(out)


def _inv_letters(sig: FPSignature, letters) -> tuple[tuple[int, int], ...]:
    r = sig.r
    inverses = sig._inverses
    return tuple([(fid, -v) if fid < r else (fid, inverses[fid - r][v])
                  for fid, v in reversed(letters)])


def _concat(sig: FPSignature, a, b) -> tuple[tuple[int, int], ...]:
    """Product of two normal forms: only the junction can simplify.

    k letter pairs cancel across the junction; the next pair, if it shares a
    factor, merges into one letter."""
    if not a or not b or a[-1][0] != b[0][0]:
        return a + b
    r = sig.r
    tables, idents = sig._tables, sig._idents
    na = len(a)
    m = min(na, len(b))
    k = 0
    while k < m:
        fid, v = b[k]
        pfid, pv = a[na - 1 - k]
        if pfid != fid:
            break
        if fid < r:
            e = pv + v
            if e:
                return a[:na - 1 - k] + ((fid, e),) + b[k + 1:]
        else:
            g = tables[fid - r][pv][v]
            if g != idents[fid - r]:
                return a[:na - 1 - k] + ((fid, g),) + b[k + 1:]
        k += 1
    return a[:na - k] + b[k:]


def fp_normalize(sig: FPSignature, raw) -> FPWord:
    """Canonical normal form of an arbitrary letter sequence; idempotent."""
    return FPWord(sig, _normalize_letters(sig, raw))


def fp_mul(w1: FPWord, w2: FPWord) -> FPWord:
    if w1.sig != w2.sig:
        raise SignatureMismatch("words over different signatures")
    return FPWord(w1.sig, _concat(w1.sig, w1.letters, w2.letters))


@dataclass(frozen=True, eq=True)
class DirectTuple:
    """Element of G_1 x ... x G_N, one index per finite factor."""

    sig: FPSignature
    coords: tuple[int, ...]

    def __hash__(self):
        return hash(self.coords)

    def is_identity(self) -> bool:
        return self.coords == self.sig.identity_tuple()

    def __mul__(self, other: "DirectTuple") -> "DirectTuple":
        if self.sig != other.sig:
            raise SignatureMismatch("tuples over different signatures")
        return DirectTuple(self.sig, tuple(
            self.sig.factor(j).table[a][b]
            for j, (a, b) in enumerate(zip(self.coords, other.coords))))

    def inv(self) -> "DirectTuple":
        return DirectTuple(self.sig, tuple(
            self.sig.factor(j).inverse[a] for j, a in enumerate(self.coords)))


def _alpha_tuple(sig: FPSignature, letters) -> tuple[int, ...]:
    r = sig.r
    tables = sig._tables
    coords = list(sig.identity_tuple())
    for fid, v in letters:
        if fid >= r:
            j = fid - r
            coords[j] = tables[j][coords[j]][v]
    return tuple(coords)


def alpha(w: FPWord) -> DirectTuple:
    """Quotient onto the direct product: kills Z letters, multiplies the rest."""
    return DirectTuple(w.sig, _alpha_tuple(w.sig, w.letters))


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


def iter_words_raw(sig: FPSignature, max_len: int,
                   carry_init=None,
                   carry_step: Callable | None = None,
                   sorted_grades: bool = True) -> Iterator[tuple]:
    """All normal forms of generator length <= max_len, graded by length.

    Yields (letters, alpha_coords, carry).  Every normal form of length n+1
    is reached exactly once by a unit extension of its length-n prefix, so no
    deduplication is needed.  The optional carry threads any multiplicative
    bookkeeping (matrix evaluation, quotient images) along the extension.
    Words of one grade share their generator length, so a sorted grade is
    ordered by its letters' shortlex ranks alone.
    """
    r = sig.r
    tables, idents = sig._tables, sig._idents
    grade: list[tuple] = [((), sig.identity_tuple(), carry_init)]
    yield from grade
    # per finite factor: its letter id, table, and (letter, element) extensions
    finite = [(r + j, j, tab, [((r + j, g), g) for g in range(len(tab)) if g != idents[j]])
              for j, tab in enumerate(tables)]
    if sorted_grades:
        alphabet = [(i, e) for i in range(r) for k in range(1, max_len + 1) for e in (k, -k)]
        alphabet += [letter for _, _, _, ext in finite for letter, _ in ext]
        alphabet.sort(key=lambda letter: _letter_key(r, letter))
        rank = {letter: k for k, letter in enumerate(alphabet)}.__getitem__

        def grade_key(entry):
            return tuple(map(rank, entry[0]))
    for _ in range(max_len):
        nxt: list[tuple] = []
        for letters, al, carry in grade:
            last = letters[-1][0] if letters else -1
            for i in range(r):
                if last == i:
                    e = letters[-1][1]
                    d = 1 if e > 0 else -1
                    child = letters[:-1] + ((i, e + d),)
                    c2 = carry_step(carry, (i, d)) if carry_step else None
                    nxt.append((child, al, c2))
                else:
                    for d in (1, -1):
                        child = letters + ((i, d),)
                        c2 = carry_step(carry, (i, d)) if carry_step else None
                        nxt.append((child, al, c2))
            for fid, j, tab, ext in finite:
                if last == fid:
                    continue
                row = tab[al[j]]
                head, tail = al[:j], al[j + 1:]
                for letter, g in ext:
                    c2 = carry_step(carry, letter) if carry_step else None
                    nxt.append((letters + (letter,), head + (row[g],) + tail, c2))
        if sorted_grades:
            nxt.sort(key=grade_key)
        yield from nxt
        grade = nxt


def enumerate_words(sig: FPSignature, max_len: int) -> list[FPWord]:
    """Shortlex list of normal forms with generator length <= max_len."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    return [FPWord(sig, letters) for letters, _, _ in iter_words_raw(sig, max_len)]


def kernel_words(sig: FPSignature, max_len: int) -> Iterator[FPWord]:
    """Nonidentity words of generator length <= max_len in the kernel of
    alpha, lazily and in shortlex order."""
    ident = sig.identity_tuple()
    for letters, al, _ in iter_words_raw(sig, max_len):
        if letters and al == ident:
            yield FPWord(sig, letters)


# ---------------------------------------------------------------------------
# word strings: "z1^2 * g1:a * z3^-1"
# ---------------------------------------------------------------------------

def format_word(w: FPWord) -> str:
    if not w.letters:
        return "e"
    r = w.sig.r
    parts = []
    for fid, v in w.letters:
        if fid < r:
            parts.append(f"z{fid + 1}" if v == 1 else f"z{fid + 1}^{v}")
        else:
            j = fid - r
            parts.append(f"g{j + 1}:{w.sig.factor(j).labels[v]}")
    return " * ".join(parts)


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
                idx, exp = int(idx_s), int(exp_s)
            else:
                idx, exp = int(body), 1
            if not 1 <= idx <= sig.r:
                raise BadFactorIndex(f"no Z factor z{idx}")
            raw.append((idx - 1, exp))
        elif token.startswith("g"):
            head, _, label = token.partition(":")
            j = int(head[1:])
            if not 1 <= j <= sig.num_factors:
                raise BadFactorIndex(f"no finite factor g{j}")
            G = sig.factor(j - 1)
            if label in G.labels:
                v = G.label_index(label)
            else:
                v = int(label)
                if not 0 <= v < G.order:
                    raise BadElementIndex(f"element {label!r} out of range for g{j}")
            raw.append((sig.r + j - 1, v))
        else:
            raise ValueError(f"cannot parse word token {token!r}")
    return fp_normalize(sig, raw)
