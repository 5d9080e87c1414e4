"""Frobenius-divided twist data: constant sequences and their morphisms.

A representation yields the constant sequence whose every layer is the same
twist datum, its `generator`; the base-relative Frobenius fixes the
coefficient ring, which is what makes the literal constancy correct.  A
transport mode says how a constant matrix M crosses a layer: base-relative,
as M, so chains are plain twisted morphisms over K; field-relative, as
`M.frobenius()`, pinning eventually-constant chains down to the prime field.

`FDividedDatum` is a plain class whose fields are read-only by contract; the
result records are `typing.NamedTuple`s.
"""

from __future__ import annotations

from typing import NamedTuple

from .descent import MeromorphicCocycle, datum_from_rep, hom_cocycle
from .errors import ModeMismatch
from .field import FunctionField, MatrixK, solve_linear
from .reps import ContinuousRep, rep_tensor

S_RELATIVE = "S"
K_RELATIVE = "K"


class FDividedDatum:
    """Constant sequence of twist data plus a Frobenius transport mode."""

    def __init__(self, generator: MeromorphicCocycle, mode: str = S_RELATIVE):
        if mode not in (S_RELATIVE, K_RELATIVE):
            raise ModeMismatch(f"unknown transport mode {mode!r}")
        self.generator = generator
        self.mode = mode


def fdiv_from_rep(rep: ContinuousRep, mode: str = S_RELATIVE) -> FDividedDatum:
    return FDividedDatum(datum_from_rep(rep), mode)


class FdivHomBasis(NamedTuple):
    scalar_field: str
    basis: tuple[MatrixK, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def hom_fdiv(d1: FDividedDatum, d2: FDividedDatum) -> FdivHomBasis:
    """Morphisms of constant sequences compatible with the transport.

    Base-relative mode: chains are constant over K, so the answer is the
    twisted-morphism space itself.  Field-relative mode: a chain that is
    eventually constant must consist of one Frobenius-fixed morphism (the
    entries solve x = x^p along the chain), an F_p-vector space computed
    exactly from the echelonized morphism basis.
    """
    if d1.mode != d2.mode:
        raise ModeMismatch("cannot mix transport modes")
    basis = hom_cocycle(d1.generator, d2.generator)
    if d1.mode == S_RELATIVE:
        return FdivHomBasis("K", tuple(basis))
    field = d1.generator.field
    fixed = _frobenius_fixed_combinations(field, basis) if basis else []
    return FdivHomBasis(f"F_{field.p}", tuple(fixed))


def _frobenius_fixed_combinations(field: FunctionField,
                                  basis: list[MatrixK]) -> list[MatrixK]:
    """All f = sum c_j B_j with entrywise f^p = f.

    The reduced basis has unit pivots, so the pivot coordinates force every
    coefficient into the prime field; what remains is the linear system
    sum c_j (B_j^p - B_j) = 0 with constant coefficients, assembled by
    clearing denominators entrywise and solved over K.  Each entry times the
    product of every entry's denominator has denominator 1.  When every
    difference is zero no row is built and nothing is solved: the kernel of
    the empty system is the standard basis, so the answer is the basis
    itself.
    """
    diffs = [B.frobenius() - B for B in basis]
    zero = field.zero()
    rows: list[tuple] = []
    shape = (basis[0].rows, basis[0].cols)
    for i in range(shape[0]):
        for j in range(shape[1]):
            entries = [D.entries[i][j] for D in diffs]
            if all(e.is_zero() for e in entries):
                continue
            common = field.one()
            for e in entries:
                if not e.is_zero():
                    common = common * field.rf(e.den)
            polys = [(e * common).num for e in entries]
            for k in range(max(map(len, polys))):
                row = tuple(field.rf(poly[k]) if k < len(poly) else zero
                            for poly in polys)
                if any(e.num for e in row):
                    rows.append(row)
    if not rows:
        return list(basis)
    sol = solve_linear(MatrixK(field, tuple(rows)), MatrixK.zeros(field, len(rows), 1))
    out = []
    for vec in sol.kernel:
        terms = [B.scale(c) for (c,), B in zip(vec.entries, basis) if c.num]
        acc = terms[0]
        for term in terms[1:]:
            acc = acc + term
        out.append(acc)
    return out


class TensorCertificate(NamedTuple):
    generators_checked: int
    passed: bool


def tensor_fdiv(d1: FDividedDatum, d2: FDividedDatum) -> tuple[FDividedDatum, TensorCertificate]:
    """Layerwise Kronecker product, certified on every generator: Z letters
    compared, factor letters proved.  H(z_i), which `solve_linear` inverted
    from rho1(z_i) (x) rho2(z_i) when the tensor rep was built, must equal the
    Kronecker product of the factors' stored inverses.  The refined group
    inverts componentwise, so H((g, h)) = rho1(g^-1) (x) rho2(h^-1) holds by
    construction; each of the |refined_j| letters counts as checked."""
    if d1.mode != d2.mode:
        raise ModeMismatch("cannot mix transport modes")
    g1, g2 = d1.generator, d2.generator
    tensor_rep = rep_tensor(g1.rep, g2.rep)
    out = FDividedDatum(MeromorphicCocycle(tensor_rep, g1.scope), d1.mode)
    r = tensor_rep.sig.r
    for i in range(r):
        letter = (i, 1)
        if out.generator.letter_twist(letter) != \
                g1.letter_twist(letter).kron(g2.letter_twist(letter)):
            return out, TensorCertificate(i, False)
    checked = r + sum(G.order for G in tensor_rep.factor_groups)
    return out, TensorCertificate(checked, True)
