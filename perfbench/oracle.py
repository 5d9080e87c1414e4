"""Independent answers for the benchmark's known-answer checks.

Nothing here imports nodalcover.  Group tables are built from their
definitions, and word counts come from a grade recurrence over syllables,
not from the library's enumeration.

A normal form of Z^{*r} * G_1 * ... * G_N is a sequence of syllables from
pairwise different adjacent factors: a Z syllable z_i^e (e != 0) has
generator length |e|, a finite syllable is one non-identity element and has
length 1.  The recurrence tracks, per grade, the last factor and the image in
G_1 x ... x G_N, which gives the kernel words; reversing a normal form swaps
its first and last factor, so the count of words ending in a factor equals
the count starting with it, which gives the components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class GroupTable:
    """A finite group by its multiplication table, built without the library."""

    name: str
    table: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]
    identity: int

    @property
    def order(self) -> int:
        return len(self.table)


def cyclic(n: int) -> GroupTable:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return GroupTable(f"Z{n}", table, (1 % n,), 0)


def symmetric3() -> GroupTable:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(px[py[i]] for i in range(3))] for py in perms)
                  for px in perms)
    swap, rot = index[(1, 0, 2)], index[(1, 2, 0)]
    return GroupTable("S3", table, (swap, rot), index[(0, 1, 2)])


def relabel(G: GroupTable, perm) -> GroupTable:
    """The same group with element a renamed perm[a]."""
    n = G.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return GroupTable(G.name, tuple(tuple(row) for row in table),
                      tuple(perm[g] for g in G.generators), perm[G.identity])


def alpha(r: int, groups, letters) -> tuple[int, ...]:
    """Image of a word in G_1 x ... x G_N: Z letters die, the rest multiply."""
    coords = [G.identity for G in groups]
    for fid, v in letters:
        if fid >= r:
            j = fid - r
            coords[j] = groups[j].table[coords[j]][v]
    return tuple(coords)


@dataclass(frozen=True)
class WordCounts:
    by_grade: tuple[int, ...]       # all normal forms per generator length
    kernel: int                     # nonempty words with trivial image
    components: int                 # (j, s) with s not starting in factor j

    @property
    def words(self) -> int:
        return sum(self.by_grade)


def word_counts(r: int, groups, max_len: int) -> WordCounts:
    ident = tuple(G.identity for G in groups)
    nfac = r + len(groups)
    # states[n][(last factor, image)] = number of normal forms of length n
    states = [dict() for _ in range(max_len + 1)]
    states[0][(-1, ident)] = 1
    for n in range(max_len + 1):
        for (last, al), cnt in states[n].items():
            for i in range(r):
                if i == last:
                    continue
                for k in range(1, max_len - n + 1):
                    key = (i, al)
                    states[n + k][key] = states[n + k].get(key, 0) + 2 * cnt
            if n == max_len:
                continue
            for j, G in enumerate(groups):
                if r + j == last:
                    continue
                for g in range(G.order):
                    if g == G.identity:
                        continue
                    al2 = al[:j] + (G.table[al[j]][g],) + al[j + 1:]
                    key = (r + j, al2)
                    states[n + 1][key] = states[n + 1].get(key, 0) + cnt
    by_grade = tuple(sum(s.values()) for s in states)
    kernel = sum(cnt for n in range(1, max_len + 1)
                 for (_, al), cnt in states[n].items() if al == ident)
    ending = [0] * nfac
    for n in range(1, max_len + 1):
        for (last, _), cnt in states[n].items():
            ending[last] += cnt
    total = sum(by_grade)
    comps = sum(total - ending[r + j] for j in range(len(groups)))
    return WordCounts(by_grade, kernel, comps)


def kernel_words(r: int, tables, max_len: int) -> list[tuple]:
    """Nonempty words with trivial image, by direct recursion over syllables."""
    ident = tuple(G.identity for G in tables)
    out = []

    def grow(letters, length):
        if letters and alpha(r, tables, letters) == ident:
            out.append(letters)
        last = letters[-1][0] if letters else None
        for i in range(r):
            if i == last:
                continue
            for e in range(1, max_len - length + 1):
                for s in (e, -e):
                    grow(letters + ((i, s),), length + e)
        if length < max_len:
            for j, G in enumerate(tables):
                if r + j == last:
                    continue
                for g in range(G.order):
                    if g != G.identity:
                        grow(letters + ((r + j, g),), length + 1)

    grow((), 0)
    return out
