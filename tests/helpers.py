"""Shared builders for the test suite."""

from __future__ import annotations

import random

from nodalcover.curves import chain_curve_for_signature, pi1_presentation
from nodalcover.errors import SingularBasis
from nodalcover.field import INFINITY, FunctionField, MatrixK
from nodalcover.groups import (
    FPSignature,
    FPWord,
    cyclic_group,
    fp_normalize,
    symmetric_group,
)
from nodalcover.reps import ContinuousRep, FiniteQuotientRep

F3 = FunctionField(3)
F5 = FunctionField(5)
F7 = FunctionField(7)
QQ = FunctionField.rationals()


def sig_with_pres(r, groups):
    pres = pi1_presentation(chain_curve_for_signature(r, len(groups)))
    return FPSignature(r, tuple(groups)), pres


def random_rf(rng: random.Random, field=F3, deg=2, nonzero=False):
    p = field.p
    while True:
        num = tuple(rng.randrange(p) for _ in range(rng.randint(1, deg + 1)))
        den = tuple(rng.randrange(p) for _ in range(rng.randint(1, deg + 1)))
        if not any(den):
            continue
        f = field.rf(num, den)
        if nonzero and f.is_zero():
            continue
        return f


def random_matrix(rng: random.Random, field, n, deg=1, invertible=False):
    while True:
        M = MatrixK(field, tuple(
            tuple(random_rf(rng, field, deg) for _ in range(n)) for _ in range(n)))
        if not invertible or not M.det().is_zero():
            return M


def gen_length(r, letters):
    """Generator length: a Z syllable counts its |exponent|, a finite letter one."""
    return sum(abs(v) if fid < r else 1 for fid, v in letters)


def random_word(rng: random.Random, sig: FPSignature, syllables=4) -> FPWord:
    raw = []
    for _ in range(syllables):
        fid = rng.randrange(sig.r + sig.num_factors)
        if fid < sig.r:
            raw.append((fid, rng.choice([-3, -2, -1, 1, 2, 3])))
        else:
            raw.append((fid, rng.randrange(sig.factor(fid - sig.r).order)))
    return fp_normalize(sig, raw)


def rank1_rep(field=F3, r=1):
    """z_i -> t^i, one two-element factor acting by the sign."""
    Z2 = cyclic_group(2)
    sig, pres = sig_with_pres(r, (Z2,))
    t = field.t()
    z_imgs = [MatrixK(field, ((t ** (i + 1),),)) for i in range(r)]
    one = MatrixK.identity(field, 1)
    neg = MatrixK(field, ((field.from_int(-1),),))
    return ContinuousRep.build(pres, field, z_imgs, (Z2,), ((one, neg),))


def rank2_rep(field=F3):
    Z2 = cyclic_group(2)
    sig, pres = sig_with_pres(1, (Z2,))
    z = MatrixK.from_rows(field, [["t", "1"], ["0", "1"]])
    swap = MatrixK.from_rows(field, [["0", "1"], ["1", "0"]])
    return ContinuousRep.build(pres, field, [z], (Z2,),
                               ((MatrixK.identity(field, 2), swap),))


def smith_exponents(M: MatrixK) -> tuple[int, ...]:
    """Elementary divisor exponents of an invertible matrix over the valuation
    ring: M is GL_n(A)-equivalent on both sides to diag(t^{e_1}, ..., t^{e_n}),
    e_1 <= ... <= e_n."""
    if M.rows != M.cols:
        raise SingularBasis("square matrices only")
    n = M.rows
    a = [list(row) for row in M.entries]
    exps = []
    for k in range(n):
        best, bestv = None, INFINITY
        for i in range(k, n):
            for j in range(k, n):
                v = a[i][j].valuation()
                if v < bestv:
                    best, bestv = (i, j), v
        if best is None or bestv == INFINITY:
            raise SingularBasis("matrix is singular over K")
        bi, bj = best
        a[k], a[bi] = a[bi], a[k]
        for row in a:
            row[k], row[bj] = row[bj], row[k]
        piv = a[k][k]
        inv = piv.inverse()
        for i in range(k + 1, n):
            if a[i][k].num:
                f = a[i][k] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        for j in range(k + 1, n):
            if a[k][j].num:
                f = a[k][j] * inv
                for i in range(k, n):
                    a[i][j] = a[i][j] - f * a[i][k]
        exps.append(int(bestv))
    return tuple(sorted(exps))


def block_diag(x: MatrixK, y: MatrixK) -> MatrixK:
    F = x.field
    zero = F.zero()
    n, m = x.rows, y.rows
    rows = [tuple(x.entries[i]) + (zero,) * m for i in range(n)]
    rows += [(zero,) * n + tuple(y.entries[i]) for i in range(m)]
    return MatrixK(F, tuple(rows))


def fq_direct_sum(a: FiniteQuotientRep, b: FiniteQuotientRep) -> FiniteQuotientRep:
    """Blockwise direct sum of two quotient reps sharing the same surjection."""
    assert (a.presentation, a.group, a.z_to, a.factor_to, a.field) == \
        (b.presentation, b.group, b.z_to, b.factor_to, b.field)
    hom = tuple(block_diag(x, y) for x, y in zip(a.hom, b.hom))
    return FiniteQuotientRep.build(a.presentation, a.field, a.source_groups,
                                   a.group, a.z_to, a.factor_to, hom)


def s3_rep_2dim(field=F7):
    """Faithful two-dimensional representation of the symmetric group."""
    from nodalcover.reps import hom_from_generator_images

    S3 = symmetric_group(3)
    sig, pres = sig_with_pres(1, (S3,))
    swap = MatrixK.from_rows(field, [["0", "1"], ["1", "0"]])
    rot = MatrixK.from_rows(field, [["0", "6"], ["1", "6"]])
    hom = hom_from_generator_images(field, S3, [swap, rot], 2)
    z = MatrixK.from_rows(field, [["t", "0"], ["0", "1"]])
    return ContinuousRep.build(pres, field, [z], (S3,), (hom,))
