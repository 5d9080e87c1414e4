"""Representations of the free-product group as finite matrix data.

A rep assigns an invertible matrix over K to each Z generator and a matrix
homomorphism to each finite factor; this is exactly the data a continuous
finite-dimensional representation of the curve's fundamental group boils
down to once every component factor acts through a finite quotient.
Both rep types are plain classes whose fields are read-only by contract.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .curves import Pi1Presentation
from .errors import PresentationMismatch, SignatureMismatch, SingularBasis
from .field import FunctionField, MatrixK, solve_linear
from .groups import FiniteGroup, FPSignature, FPWord, generation_walk, product_subgroup


def _check_hom(G: FiniteGroup, images: tuple[MatrixK, ...], what: str):
    if len(images) != G.order:
        raise ValueError(f"{what}: need one matrix per group element")
    ident = MatrixK.identity(images[0].field, images[0].rows)
    if images[G.identity] != ident:
        raise ValueError(f"{what}: identity element must map to the identity matrix")
    bad = G.hom_failure(images, operator.mul)
    if bad is not None:
        raise ValueError(f"{what}: images do not respect the table at ({bad[0]},{bad[1]})")


def _common_rank(field: FunctionField, mats) -> int:
    """The size every matrix in mats shares, each checked square over field."""
    if not mats:
        raise PresentationMismatch("empty representation data")
    rank = mats[0].rows
    for m in mats:
        if m.field != field:
            raise PresentationMismatch("matrix over the wrong coefficient field")
        if (m.rows, m.cols) != (rank, rank):
            raise PresentationMismatch("all matrices must share the rep's rank")
    return rank


class ContinuousRep:
    """Matrices over K for the Z generators plus a hom per finite factor. The
    Z images are inverted once, at construction: that certifies them
    invertible.  The inverses take no part in equality."""

    def __init__(self, presentation: Pi1Presentation, field: FunctionField, rank: int,
                 z_images: tuple[MatrixK, ...], factor_groups: tuple[FiniteGroup, ...],
                 factor_homs: tuple[tuple[MatrixK, ...], ...]):
        inverses = []
        for i, z in enumerate(z_images):
            try:
                inverses.append(z.inverse())
            except SingularBasis:
                raise SingularBasis(f"z{i + 1} image is singular") from None
        self.presentation = presentation
        self.field = field
        self.rank = rank
        self.z_images = z_images
        self.factor_groups = factor_groups
        self.factor_homs = factor_homs
        self.z_inverses = tuple(inverses)

    def _key(self):
        return (self.presentation, self.field, self.rank, self.z_images,
                self.factor_groups, self.factor_homs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def build(cls, presentation: Pi1Presentation, field: FunctionField,
              z_images, factor_groups, factor_homs) -> "ContinuousRep":
        z_images = tuple(z_images)
        factor_groups = tuple(factor_groups)
        factor_homs = tuple(tuple(h) for h in factor_homs)
        if len(z_images) != presentation.r:
            raise PresentationMismatch(
                f"need {presentation.r} Z images, got {len(z_images)}")
        if len(factor_groups) != len(presentation.curve.components):
            raise PresentationMismatch("one factor group per curve component required")
        if len(factor_homs) != len(factor_groups):
            raise PresentationMismatch("one factor hom per factor group required")
        rank = _common_rank(field, list(z_images) + [m for h in factor_homs for m in h])
        rep = cls(presentation, field, rank, z_images, factor_groups, factor_homs)
        for j, (G, images) in enumerate(zip(factor_groups, factor_homs)):
            _check_hom(G, images, f"factor hom {j + 1} ({G.name})")
        return rep

    @cached_property
    def sig(self) -> FPSignature:
        return FPSignature(self.presentation.r, self.factor_groups)

    def identity_matrix(self) -> MatrixK:
        return MatrixK.identity(self.field, self.rank)

    @cached_property
    def z_det_valuations(self) -> tuple[int, ...]:
        """v(det rho(z_i)) per Z generator: one determinant each, on first use.
        Each is finite, since the Z images were inverted at construction."""
        return tuple(int(z.det().valuation()) for z in self.z_images)


def hom_from_generator_images(field: FunctionField, G: FiniteGroup,
                              gen_mats, rank: int) -> tuple[MatrixK, ...]:
    """Extend matrices on the designated generators to all of G along the
    spanning tree of `generation_walk`, which reaches every element because
    construction proved that the generators generate.

    The extension is only well defined when the assignment respects the
    relations; callers validate the result (ContinuousRep.build and the
    FiniteQuotientRep constructor both do)."""
    gen_mats = list(gen_mats)
    if len(gen_mats) != len(G.generators):
        raise ValueError(
            f"need one matrix per designated generator of {G.name}")
    images = {G.identity: MatrixK.identity(field, rank)}
    for x, k, y in generation_walk(G.identity, G.generators, lambda x, g: G.table[x][g]):
        images[y] = images[x] * gen_mats[k]
    return tuple(images[g] for g in range(G.order))


def trivial_rep(presentation: Pi1Presentation, field: FunctionField,
                factor_groups, rank: int = 1) -> ContinuousRep:
    groups = tuple(factor_groups)
    ident = MatrixK.identity(field, rank)
    return ContinuousRep.build(
        presentation, field,
        z_images=tuple(ident for _ in range(presentation.r)),
        factor_groups=groups,
        factor_homs=tuple(tuple(ident for _ in range(G.order)) for G in groups))


def eval_word(rep: ContinuousRep, w: FPWord) -> MatrixK:
    """rho(w) = H(w^-1), read off the descent twist, which builds the letter
    matrices; `perfbench/tracing.py` wraps this function by name."""
    from .descent import datum_from_rep

    return datum_from_rep(rep).twist(w.inv())


def rep_tensor(r1: ContinuousRep, r2: ContinuousRep) -> ContinuousRep:
    """Kronecker product, with each factor group refined to the subgroup of
    G_j x H_j generated by the paired designated generators.  The refined
    law is not re-checked: the refined group multiplies componentwise, so it
    follows from the factors' proven laws by the mixed-product rule
    (A (x) B)(C (x) D) = AC (x) BD, and I (x) I = I.  The Z images are still
    inverted by `solve_linear` when the rep is built."""
    if r1.presentation != r2.presentation:
        raise PresentationMismatch("tensor factors must share a presentation")
    if r1.field != r2.field:
        raise PresentationMismatch("tensor factors must share a coefficient field")
    new_groups = []
    new_homs = []
    for j, (G, H) in enumerate(zip(r1.factor_groups, r2.factor_groups)):
        if len(G.generators) != len(H.generators):
            raise PresentationMismatch(
                f"factor {j + 1}: generator tuples of unequal length cannot be paired")
        pairs = tuple(zip(G.generators, H.generators))
        refined, elems = product_subgroup(G, H, pairs, name=f"{G.name}*{H.name}")
        new_groups.append(refined)
        new_homs.append(tuple(
            r1.factor_homs[j][g].kron(r2.factor_homs[j][h]) for (g, h) in elems))
    return ContinuousRep(
        r1.presentation, r1.field, r1.rank * r2.rank,
        z_images=tuple(a.kron(b) for a, b in zip(r1.z_images, r2.z_images)),
        factor_groups=tuple(new_groups),
        factor_homs=tuple(new_homs))


# ---------------------------------------------------------------------------
# finite-quotient representations
# ---------------------------------------------------------------------------

class FiniteQuotientRep:
    """A surjection of the free-product group onto a finite group, plus a
    matrix representation of that quotient.  Construction proves both, and
    the rank is read off the matrices."""

    def __init__(self, presentation: Pi1Presentation, field: FunctionField,
                 source_groups: tuple[FiniteGroup, ...], group: FiniteGroup,
                 z_to: tuple[int, ...], factor_to: tuple[tuple[int, ...], ...],
                 hom: tuple[MatrixK, ...]):
        if len(z_to) != presentation.r:
            raise PresentationMismatch("one quotient image per Z generator required")
        if len(source_groups) != len(presentation.curve.components):
            raise PresentationMismatch("one source group per curve component required")
        if len(factor_to) != len(source_groups):
            raise PresentationMismatch("one element map per source factor required")
        images = list(z_to) + [x for mp in factor_to for x in mp]
        if any(not 0 <= x < group.order for x in images):
            raise ValueError("image out of range in the quotient")
        for j, (G, mp) in enumerate(zip(source_groups, factor_to)):
            if len(mp) != G.order:
                raise ValueError(f"factor map {j + 1} must cover every element")
            if G.hom_failure(mp, lambda x, y: group.table[x][y]) is not None:
                raise ValueError(f"factor map {j + 1} is not a homomorphism")
        self.rank = _common_rank(field, hom)
        _check_hom(group, hom, "quotient hom")
        if len(group.closure(images)) != group.order:
            raise ValueError("surjection data does not hit every quotient element")
        self.presentation = presentation
        self.field = field
        self.source_groups = source_groups
        self.group = group
        self.z_to = z_to
        self.factor_to = factor_to
        self.hom = hom

    @classmethod
    def build(cls, presentation: Pi1Presentation, field: FunctionField,
              source_groups, group: FiniteGroup, z_to, factor_to, hom) -> "FiniteQuotientRep":
        return cls(presentation, field, tuple(source_groups), group,
                   tuple(int(x) for x in z_to),
                   tuple(tuple(int(x) for x in m) for m in factor_to), tuple(hom))

    @cached_property
    def sig(self) -> FPSignature:
        return FPSignature(self.presentation.r, self.source_groups)

    def q_letter(self, letter: tuple[int, int]) -> int:
        fid, v = letter
        r = self.presentation.r
        if fid < r:
            img = self.z_to[fid]
            if v < 0:
                img, v = self.group.inverse[img], -v
            out = self.group.identity
            for _ in range(v):
                out = self.group.table[out][img]
            return out
        return self.factor_to[fid - r][v]


def inflate(fq: FiniteQuotientRep, pres: Pi1Presentation) -> ContinuousRep:
    """Pull a finite-quotient rep back to the free product; evaluation then
    factors through the quotient, so kernel words act as the identity.

    Nothing is re-checked: constructing `fq` checked the hom's field, shape
    and law and each factor map's law, and a hom composed with a
    factor map is again a hom."""
    if pres != fq.presentation:
        raise SignatureMismatch("presentation does not match the quotient data")
    return ContinuousRep(
        pres, fq.field, fq.rank,
        z_images=tuple(fq.hom[x] for x in fq.z_to),
        factor_groups=fq.source_groups,
        factor_homs=tuple(tuple(fq.hom[mp[g]] for g in range(G.order))
                          for G, mp in zip(fq.source_groups, fq.factor_to)))


def solve_intertwining(field: FunctionField, n1: int, n2: int,
                       pairs: list[tuple[MatrixK, MatrixK]]) -> list[MatrixK]:
    """Basis of {f (n2 x n1) : B f = f A for every (A, B) in pairs}."""
    zero = field.zero()
    nvars = n1 * n2
    rows = []
    for A, B in pairs:
        for i in range(n2):
            for j in range(n1):
                row = [zero] * nvars
                for k in range(n2):
                    row[k * n1 + j] = row[k * n1 + j] + B.entries[i][k]
                for l in range(n1):
                    row[i * n1 + l] = row[i * n1 + l] - A.entries[l][j]
                rows.append(tuple(row))
    if not rows:
        rows = [tuple([zero] * nvars)]
    M = MatrixK(field, tuple(rows))
    rhs = MatrixK.zeros(field, len(rows), 1)
    sol = solve_linear(M, rhs)
    basis = []
    for vec in sol.kernel:
        entries = tuple(
            tuple(vec.entries[i * n1 + j][0] for j in range(n1)) for i in range(n2))
        basis.append(MatrixK(field, entries))
    return basis
