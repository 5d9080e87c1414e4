"""Function Hopf algebras of finite groups and towers of finite quotients.

The algebra of functions on a finite group has the indicator basis e_g with
pointwise product, the convolution coproduct Delta(e_g) = sum_{hk=g} e_h (x)
e_k, counit evaluation at the identity, and antipode pulled back along
inversion.  It is the Hopf algebra of the constant group scheme, so each
Hopf axiom is one group axiom of the table: coassociativity is
associativity, the counit law is the identity, the antipode law is inverses,
and compatibility and the unit law hold because Delta is the pullback along
the multiplication (Waterhouse, Introduction to Affine Group Schemes, 2.3).
Building a `FiniteGroup` proves those group axioms, so the Hopf axioms hold
for every algebra built here (`HopfAlgebra` gives the proof) and the library
scans nothing again; selftest criterion 11 evaluates the coassociativity,
counit and antipode laws on every basis vector apart from this proof.  Its
product is pointwise, so every such algebra is commutative.

A representation rho of the group is a comodule by the coaction
v -> sum_g rho(g) v (x) e_g.  The counit axiom is rho(e) = 1 and
coassociativity at (g, h) is rho(g) rho(h) = rho(gh); building a
`FiniteQuotientRep` proved both.  The coaction's g-component is rho(g)
itself, so reading the rep back off it is exact.

Dual maps of surjective homomorphisms are injective Hopf maps; a tower of
quotients therefore produces a strictly growing chain of these algebras, and
building a `QuotientTower` proves that each transition map is one.

`HopfAlgebra` and `QuotientTower` are plain classes whose fields are
read-only by contract; `TowerReport`, a pure record, is a `typing.NamedTuple`.
"""

from __future__ import annotations

from typing import NamedTuple

from .groups import FiniteGroup

Vector = tuple
Tensor2 = dict  # {(h, k): coeff}


class HopfAlgebra:
    """Functions on a finite group with the convolution coproduct.

    The Hopf axioms hold at every instance: coassociativity, the counit law
    and the antipode law at each basis element, compatibility at each pair
    of basis elements, and the unit law.  Write e for the identity and g^-1
    for the stored inverse.  Building the `FiniteGroup` proved three facts
    of its table: ex = x = xe for every x, x x^-1 = e = x^-1 x for every x,
    and (ab)c = a(bc) for every triple.  The three facts make the table a
    group, and in a group k = h^-1 g is the one solution of hk = g, so
    `comult` is the convolution coproduct.  Then:

    * coassociativity at e_g: (Delta (x) id) Delta(e_g) and
      (id (x) Delta) Delta(e_g) are the sums of e_a (x) e_b (x) e_c over
      (ab)c = g and over a(bc) = g, the same triples by associativity;
    * counit at e_g: (eps (x) id) Delta(e_g) = sum_{ek=g} e_k = e_g and
      (id (x) eps) Delta(e_g) = sum_{he=g} e_h = e_g by the identity law;
    * antipode at e_g: m (S (x) id) Delta(e_g) = sum_{hk=g, k=h^-1} e_k,
      and hh^-1 = e, so this is sum_h e_{h^-1} = 1 when g = e and 0
      otherwise, eps(e_g) 1, by the inverse law;
    * compatibility at (e_g, e_h): Delta(f)(x, y) = f(xy) is a pullback,
      so Delta(e_g e_h) = Delta(e_g) Delta(e_h) for any table;
    * unit: Delta(1)(x, y) = 1(xy) = 1, so Delta(1) = 1 (x) 1.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group

    @property
    def dim(self) -> int:
        return self.group.order

    def basis_vec(self, g: int) -> Vector:
        return tuple(1 if i == g else 0 for i in range(self.dim))

    def antipode(self, v: Vector) -> Vector:
        return tuple(v[self.group.inverse[g]] for g in range(self.dim))

    def comult(self, v: Vector) -> Tensor2:
        """Delta(v) = sum_g v(g) sum_{hk=g} e_h (x) e_k over the support of v:
        the pair (h, k) with k = h^{-1} g determines g = hk, so each pair
        gets one coefficient and nothing accumulates."""
        G = self.group
        support = [(g, c) for g, c in enumerate(v) if c]
        out: Tensor2 = {}
        for h in range(self.dim):
            row = G.table[G.inverse[h]]
            for g, c in support:
                out[(h, row[g])] = c
        return out

    def is_cocommutative(self) -> bool:
        """Delta(e_g) is the sum of e_h (x) e_k over hk = g, so it is symmetric
        for every g exactly when hk = kh for all h, k."""
        return self.group.is_abelian()


def function_hopf(G: FiniteGroup) -> HopfAlgebra:
    """Function algebra on G, whose Hopf axioms G's construction proved
    (`HopfAlgebra`)."""
    return HopfAlgebra(G)


# ---------------------------------------------------------------------------
# towers of finite quotients
# ---------------------------------------------------------------------------

class QuotientTower:
    """Finite groups pi_0, pi_1, ... with surjections pi_{i+1} ->> pi_i."""

    def __init__(self, groups: tuple[FiniteGroup, ...], maps: tuple[tuple[int, ...], ...]):
        """Refuse maps that are not surjective homomorphisms; maps[i]:
        pi_{i+1} -> pi_i by element images."""
        if len(maps) != len(groups) - 1:
            raise ValueError("need one transition map per consecutive pair")
        self.groups = groups
        self.maps = maps
        for i, m in enumerate(maps):
            if len(m) != self.groups[i + 1].order:
                raise ValueError(f"map {i} must cover every element upstairs")
            failure = self.map_failure(i)
            if failure is not None:
                raise ValueError(f"map {i} is not {failure[0]}")

    @classmethod
    def build(cls, groups, maps) -> "QuotientTower":
        return cls(tuple(groups), tuple(tuple(int(x) for x in m) for m in maps))

    def map_failure(self, i: int) -> tuple[str, object] | None:
        """How map i fails to be a surjective homomorphism pi_{i+1} ->> pi_i:
        ("surjective", the first element of pi_i without a preimage), else
        ("a homomorphism", the first pair of pi_{i+1} breaking the law), else
        None."""
        up, down, m = self.groups[i + 1], self.groups[i], self.maps[i]
        missing = set(range(down.order)).difference(m)
        if missing:
            return "surjective", min(missing)
        bad = up.hom_failure(m, lambda x, y: down.table[x][y])
        return None if bad is None else ("a homomorphism", bad)


class TowerReport(NamedTuple):
    dimensions: tuple[int, ...]
    injective: bool


def tower_hull(tower: QuotientTower) -> TowerReport:
    """Function algebras of every level with the dual maps injective
    Hopf-algebra morphisms; dimensions grow with the levels.

    The dual of a map f: pi_{i+1} -> pi_i is the pullback v -> v o f.  A
    pullback is always multiplicative and unital, and it is injective
    exactly when f is surjective.  It respects the coproduct exactly when
    v(f(x) f(y)) = v(f(xy)) for all v, x, y, that is, when f is a
    homomorphism; a homomorphism sends the identity to the identity and
    inverses to inverses, so the dual then respects the counit and the
    antipode too.  Building the tower proved each map a surjective
    homomorphism (`QuotientTower.map_failure`), so nothing is checked again.
    A level G's function algebra has dimension |G|.
    """
    return TowerReport(tuple(G.order for G in tower.groups), True)
