"""Representations of the free-product group as finite matrix data.

A rep assigns an invertible matrix over K to each Z generator and a matrix
homomorphism to each finite factor; this is exactly the data a continuous
finite-dimensional representation of the curve's fundamental group boils
down to once every component factor acts through a finite quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .curves import Pi1Presentation
from .errors import PresentationMismatch, SignatureMismatch, SingularBasis
from .field import FunctionField, MatrixK
from .groups import FiniteGroup, FPSignature, FPWord, product_subgroup


def _check_hom(G: FiniteGroup, images: tuple[MatrixK, ...], what: str):
    if len(images) != G.order:
        raise ValueError(f"{what}: need one matrix per group element")
    ident = MatrixK.identity(images[0].field, images[0].rows)
    if images[G.identity] != ident:
        raise ValueError(f"{what}: identity element must map to the identity matrix")
    for a in range(G.order):
        for b in range(G.order):
            if images[a] * images[b] != images[G.table[a][b]]:
                raise ValueError(f"{what}: images do not respect the table at ({a},{b})")


@dataclass(frozen=True)
class ContinuousRep:
    """Matrices over K for the Z generators plus a hom per finite factor. The
    Z images are inverted once, at construction: that certifies them invertible."""

    presentation: Pi1Presentation
    field: FunctionField
    rank: int
    z_images: tuple[MatrixK, ...]
    factor_groups: tuple[FiniteGroup, ...]
    factor_homs: tuple[tuple[MatrixK, ...], ...]
    z_inverses: tuple[MatrixK, ...] = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inverses = []
        for i, z in enumerate(self.z_images):
            try:
                inverses.append(z.inverse())
            except SingularBasis:
                raise SingularBasis(f"z{i + 1} image is singular") from None
        object.__setattr__(self, "z_inverses", tuple(inverses))

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
        mats = list(z_images) + [m for h in factor_homs for m in h]
        if not mats:
            raise PresentationMismatch("empty representation data")
        rank = mats[0].rows
        for m in mats:
            if m.field != field:
                raise PresentationMismatch("matrix over the wrong coefficient field")
            if (m.rows, m.cols) != (rank, rank):
                raise PresentationMismatch("all matrices must share the rep's rank")
        rep = cls(presentation, field, rank, z_images, factor_groups, factor_homs)
        for j, (G, images) in enumerate(zip(factor_groups, factor_homs)):
            _check_hom(G, images, f"factor hom {j + 1} ({G.name})")
        return rep

    @property
    def sig(self) -> FPSignature:
        return FPSignature(self.presentation.r, self.factor_groups)

    def identity_matrix(self) -> MatrixK:
        return MatrixK.identity(self.field, self.rank)


def hom_from_generator_images(field: FunctionField, G: FiniteGroup,
                              gen_mats, rank: int) -> tuple[MatrixK, ...]:
    """Extend matrices on the designated generators to all of G by closure.

    The extension is only well defined when the assignment respects the
    relations; callers validate the result (ContinuousRep.build and
    FiniteQuotientRep.build both do)."""
    gen_mats = list(gen_mats)
    if len(gen_mats) != len(G.generators):
        raise ValueError(
            f"need one matrix per designated generator of {G.name}")
    images: dict[int, MatrixK] = {G.identity: MatrixK.identity(field, rank)}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g, M in zip(G.generators, gen_mats):
                y = G.table[x][g]
                if y not in images:
                    images[y] = images[x] * M
                    nxt.append(y)
        frontier = nxt
    if len(images) != G.order:
        raise ValueError(f"generators of {G.name} do not reach every element")
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
    G_j x H_j generated by the paired designated generators."""
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
    return ContinuousRep.build(
        r1.presentation, r1.field,
        z_images=tuple(a.kron(b) for a, b in zip(r1.z_images, r2.z_images)),
        factor_groups=tuple(new_groups),
        factor_homs=tuple(new_homs))


# ---------------------------------------------------------------------------
# finite-quotient representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteQuotientRep:
    """A surjection of the free-product group onto a finite group, plus a
    matrix representation of that quotient."""

    presentation: Pi1Presentation
    field: FunctionField
    rank: int
    source_groups: tuple[FiniteGroup, ...]
    group: FiniteGroup
    z_to: tuple[int, ...]
    factor_to: tuple[tuple[int, ...], ...]
    hom: tuple[MatrixK, ...]

    @classmethod
    def build(cls, presentation: Pi1Presentation, field: FunctionField,
              source_groups, group: FiniteGroup, z_to, factor_to, hom) -> "FiniteQuotientRep":
        source_groups = tuple(source_groups)
        z_to = tuple(int(x) for x in z_to)
        factor_to = tuple(tuple(int(x) for x in m) for m in factor_to)
        hom = tuple(hom)
        if len(z_to) != presentation.r:
            raise PresentationMismatch("one quotient image per Z generator required")
        if len(source_groups) != len(presentation.curve.components):
            raise PresentationMismatch("one source group per curve component required")
        if len(factor_to) != len(source_groups):
            raise PresentationMismatch("one element map per source factor required")
        for x in z_to:
            if not 0 <= x < group.order:
                raise ValueError("z image out of range in the quotient")
        for j, (G, mp) in enumerate(zip(source_groups, factor_to)):
            if len(mp) != G.order:
                raise ValueError(f"factor map {j + 1} must cover every element")
            if mp[G.identity] != group.identity:
                raise ValueError(f"factor map {j + 1} must send identity to identity")
            for a in range(G.order):
                for b in range(G.order):
                    if group.table[mp[a]][mp[b]] != mp[G.table[a][b]]:
                        raise ValueError(f"factor map {j + 1} is not a homomorphism")
        _check_hom(group, hom, "quotient hom")
        rank = hom[0].rows
        images = list(z_to) + [x for mp in factor_to for x in mp]
        if len(group.closure(images)) != group.order:
            raise ValueError("surjection data does not hit every quotient element")
        return cls(presentation, field, rank, source_groups, group, z_to, factor_to, hom)

    @property
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
    factors through the quotient, so kernel words act as the identity."""
    if pres != fq.presentation:
        raise SignatureMismatch("presentation does not match the quotient data")
    return ContinuousRep.build(
        pres, fq.field,
        z_images=tuple(fq.hom[x] for x in fq.z_to),
        factor_groups=fq.source_groups,
        factor_homs=tuple(tuple(fq.hom[mp[g]] for g in range(G.order))
                          for G, mp in zip(fq.source_groups, fq.factor_to)))


def intertwiners(r1: ContinuousRep, r2: ContinuousRep) -> list[MatrixK]:
    """Deterministic basis of {f : eval(r2, gamma) f = f eval(r1, gamma)} over
    the generators; multiplicativity extends the relation to every word."""
    if r1.presentation != r2.presentation or r1.field != r2.field:
        raise PresentationMismatch("intertwiners need a common presentation and field")
    gens: list[tuple[MatrixK, MatrixK]] = []
    for i in range(r1.presentation.r):
        gens.append((r1.z_images[i], r2.z_images[i]))
    for j, (G, H) in enumerate(zip(r1.factor_groups, r2.factor_groups)):
        if G is not H and G != H:
            raise PresentationMismatch("intertwiners need matching factor groups")
        for g in G.generators:
            gens.append((r1.factor_homs[j][g], r2.factor_homs[j][g]))
    return solve_intertwining(r1.field, r1.rank, r2.rank, gens)


def solve_intertwining(field: FunctionField, n1: int, n2: int,
                       pairs: list[tuple[MatrixK, MatrixK]]) -> list[MatrixK]:
    """Basis of {f (n2 x n1) : B f = f A for every (A, B) in pairs}."""
    from .field import solve_linear

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
