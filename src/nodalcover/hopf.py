"""Function Hopf algebras of finite groups and towers of finite quotients.

The algebra of functions on a finite group has the indicator basis e_g with
pointwise product, the convolution coproduct Delta(e_g) = sum_{hk=g} e_h (x)
e_k, counit evaluation at the identity, and antipode pulled back along
inversion.  Every axiom is verified exhaustively at construction.  Dual maps
of surjections between finite groups are injective Hopf maps; a tower of
quotients therefore produces a strictly growing chain of these algebras.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import AxiomViolation, NonInjectiveDual, RoundtripFailure
from .field import FunctionField, MatrixK
from .groups import FiniteGroup
from .reps import FiniteQuotientRep

Vector = tuple
Tensor2 = dict  # {(h, k): coeff}


@dataclass(frozen=True)
class HopfAlgebra:
    """Functions on a finite group with the convolution coproduct."""

    group: FiniteGroup
    base: FunctionField

    @property
    def dim(self) -> int:
        return self.group.order

    # -- linear structure ---------------------------------------------------
    def zero_vec(self) -> Vector:
        return (0,) * self.dim

    def basis_vec(self, g: int) -> Vector:
        return tuple(1 if i == g else 0 for i in range(self.dim))

    def unit(self) -> Vector:
        return (1,) * self.dim

    def add(self, v: Vector, w: Vector) -> Vector:
        return tuple(self.base.cadd(a, b) for a, b in zip(v, w))

    def mult(self, v: Vector, w: Vector) -> Vector:
        return tuple(self.base.cmul(a, b) for a, b in zip(v, w))

    def counit(self, v: Vector):
        return v[self.group.identity]

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

    # -- tensor helpers -----------------------------------------------------
    def tensor_mult(self, s: Tensor2, t: Tensor2) -> Tensor2:
        out: Tensor2 = {}
        for (a, b), c1 in s.items():
            c2 = t.get((a, b))
            if c2:
                prod = self.base.cmul(c1, c2)
                if prod:
                    out[(a, b)] = prod
        return out

    def _comult_leg(self, t: Tensor2, leg: int, cops: list[Tensor2]) -> dict:
        """(Delta (x) id) t for leg 0, (id (x) Delta) t for leg 1; cops[g] is Delta(e_g)."""
        out: dict = {}
        for (a, b), c in t.items():
            inner = cops[a if leg == 0 else b]
            for (x, y), d in inner.items():
                key = (x, y, b) if leg == 0 else (a, x, y)
                val = self.base.cmul(c, d)
                acc = self.base.cadd(out.get(key, 0), val)
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return out

    # -- axiom suite ----------------------------------------------------------
    def verify_axioms(self) -> dict:
        G = self.group
        checks = 0
        basis = [self.basis_vec(g) for g in range(self.dim)]
        cops = [self.comult(eg) for eg in basis]
        for g, (eg, dg) in enumerate(zip(basis, cops)):
            if self._comult_leg(dg, 0, cops) != self._comult_leg(dg, 1, cops):
                raise AxiomViolation(f"coassociativity fails at basis element {g}")
            left = self.zero_vec()
            right = self.zero_vec()
            for (h, k), c in dg.items():
                if h == G.identity:
                    left = self.add(left, tuple(
                        self.base.cmul(c, x) for x in basis[k]))
                if k == G.identity:
                    right = self.add(right, tuple(
                        self.base.cmul(c, x) for x in basis[h]))
            if left != eg or right != eg:
                raise AxiomViolation(f"counit law fails at basis element {g}")
            conv = self.zero_vec()
            for (h, k), c in dg.items():
                term = self.mult(self.antipode(basis[h]), basis[k])
                conv = self.add(conv, tuple(self.base.cmul(c, x) for x in term))
            target = tuple(
                self.base.cmul(self.counit(eg), x) for x in self.unit())
            if conv != target:
                raise AxiomViolation(f"antipode convolution fails at {g}")
            checks += 3
        for g in range(self.dim):
            for h in range(self.dim):
                lhs = self.comult(self.mult(basis[g], basis[h]))
                rhs = self.tensor_mult(cops[g], cops[h])
                if lhs != rhs:
                    raise AxiomViolation(f"bialgebra compatibility fails at ({g},{h})")
                checks += 1
        unit_cop = self.comult(self.unit())
        # 1 = sum_g e_g, so its coproduct is the all-ones tensor, i.e. 1 (x) 1
        expected = {(h, k): 1
                    for h in range(self.dim) for k in range(self.dim)}
        if unit_cop != expected:
            raise AxiomViolation("coproduct of the unit is not the tensor unit")
        checks += 1
        return {"dimension": self.dim, "checks": checks}

    def is_commutative(self) -> bool:
        return True  # pointwise products commute; kept for symmetry with the next

    def is_cocommutative(self) -> bool:
        for g in range(self.dim):
            dg = self.comult(self.basis_vec(g))
            if {(k, h): c for (h, k), c in dg.items()} != dg:
                return False
        return True


def function_hopf(G: FiniteGroup, base: FunctionField | None = None) -> HopfAlgebra:
    """Function algebra on G with all Hopf axioms verified at construction."""
    algebra = HopfAlgebra(G, base if base is not None else FunctionField(3))
    algebra.verify_axioms()
    return algebra


# ---------------------------------------------------------------------------
# representations as comodules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundtripReport:
    group: str
    rank: int
    coassociative_pairs: int
    exact: bool


def rep_comodule_roundtrip(fq: FiniteQuotientRep) -> RoundtripReport:
    """Turn the quotient rep into its coaction v -> sum rho(g) v (x) e_g and
    verify the comodule axioms on all |G|^2 pairs.  The coaction's g-component
    is rho(g) itself, so reading the rep back off it is exact."""
    G = fq.group
    if fq.hom[G.identity] != MatrixK.identity(fq.field, fq.rank):
        raise RoundtripFailure("counit axiom fails: identity component is not the identity")
    bad = G.hom_failure(fq.hom, operator.mul)
    if bad is not None:
        raise RoundtripFailure(f"comodule coassociativity fails at ({bad[0]},{bad[1]})")
    return RoundtripReport(G.name, fq.rank, G.order ** 2, True)


# ---------------------------------------------------------------------------
# towers of finite quotients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientTower:
    """Finite groups pi_0, pi_1, ... with surjections pi_{i+1} ->> pi_i."""

    groups: tuple[FiniteGroup, ...]
    maps: tuple[tuple[int, ...], ...]  # maps[i]: pi_{i+1} -> pi_i, element images

    @classmethod
    def build(cls, groups, maps) -> "QuotientTower":
        groups = tuple(groups)
        maps = tuple(tuple(int(x) for x in m) for m in maps)
        if len(maps) != len(groups) - 1:
            raise ValueError("need one transition map per consecutive pair")
        for i, m in enumerate(maps):
            up, down = groups[i + 1], groups[i]
            if len(m) != up.order:
                raise ValueError(f"map {i} must cover every element upstairs")
            if up.hom_failure(m, lambda x, y: down.table[x][y]) is not None:
                raise ValueError(f"map {i} is not a homomorphism")
            if set(m) != set(range(down.order)):
                raise ValueError(f"map {i} is not surjective")
        return cls(groups, maps)


@dataclass(frozen=True)
class TowerReport:
    dimensions: tuple[int, ...]
    injective: bool
    hopf_maps_verified: int


def tower_hull(tower: QuotientTower, base: FunctionField | None = None) -> TowerReport:
    """Function algebras of every level with the dual maps checked to be
    injective Hopf-algebra morphisms; dimensions grow with the levels."""
    base = base if base is not None else FunctionField(3)
    algebras = [function_hopf(G, base) for G in tower.groups]
    verified = 0
    for i, m in enumerate(tower.maps):
        Adown, Aup = algebras[i], algebras[i + 1]
        down, up = tower.groups[i], tower.groups[i + 1]
        fibers = {g: [h for h in range(up.order) if m[h] == g]
                  for g in range(down.order)}
        for g, fiber in fibers.items():
            if not fiber:
                raise NonInjectiveDual(
                    f"level {i}: element {down.labels[g]} has no preimage, "
                    "the transition map is not surjective")

        def dual(vec: Vector) -> Vector:
            return tuple(vec[m[h]] for h in range(up.order))

        for g in range(down.order):
            for h in range(down.order):
                lhs = dual(Adown.mult(Adown.basis_vec(g), Adown.basis_vec(h)))
                rhs = Aup.mult(dual(Adown.basis_vec(g)), dual(Adown.basis_vec(h)))
                if lhs != rhs:
                    raise AxiomViolation(f"dual map {i} is not multiplicative")
            src = Adown.basis_vec(g)
            lifted = dual(src)
            lhs_t = Aup.comult(lifted)
            rhs_t: Tensor2 = {}
            for (a, b), c in Adown.comult(src).items():
                for ha in fibers[a]:
                    for hb in fibers[b]:
                        key = (ha, hb)
                        acc = base.cadd(rhs_t.get(key, 0), c)
                        if acc:
                            rhs_t[key] = acc
                        elif key in rhs_t:
                            del rhs_t[key]
            if lhs_t != rhs_t:
                raise AxiomViolation(f"dual map {i} does not respect the coproduct")
            if Aup.counit(lifted) != Adown.counit(src):
                raise AxiomViolation(f"dual map {i} does not respect the counit")
            if dual(Adown.antipode(src)) != Aup.antipode(lifted):
                raise AxiomViolation(f"dual map {i} does not respect the antipode")
        if dual(Adown.unit()) != Aup.unit():
            raise AxiomViolation(f"dual map {i} does not respect the unit")
        verified += 1
    return TowerReport(tuple(G.order for G in tower.groups), True, verified)
