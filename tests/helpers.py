"""Shared builders for the test suite."""

from __future__ import annotations

import random

from nodalcover.covering import (
    ComponentIndex,
    FreenessReport,
    _canon_rep_letters,
    component_action,
)
from nodalcover.curves import chain_curve_for_signature, pi1_presentation
from nodalcover.descent import FiniteCocycle
from nodalcover.errors import (
    FreenessViolation,
    KernelNotTrivial,
    SignatureMismatch,
    SingularBasis,
)
from nodalcover.field import INFINITY, FunctionField, MatrixK
from nodalcover.groups import (
    FPSignature,
    FPWord,
    _alpha_tuple,
    _concat,
    _inv_letters,
    cyclic_group,
    fp_normalize,
    iter_words_raw,
    symmetric_group,
)
from nodalcover.reps import ContinuousRep, FiniteQuotientRep

F3 = FunctionField(3)
F5 = FunctionField(5)
F7 = FunctionField(7)


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


def letter_matrix(rep: ContinuousRep, letter) -> MatrixK:
    """Oracle for rho(a): z ** v through MatrixK's general power, whose
    negative exponents invert by elimination, or the factor's hom image."""
    fid, v = letter
    r = rep.presentation.r
    if fid < r:
        return rep.z_images[fid] ** v
    return rep.factor_homs[fid - r][v]


def eval_word(rep: ContinuousRep, w: FPWord) -> MatrixK:
    """Oracle for rho(w): the product of the letter matrices in order."""
    if w.sig != rep.sig:
        raise SignatureMismatch("word does not match the representation's signature")
    out = rep.identity_matrix()
    for letter in w.letters:
        out = out * letter_matrix(rep, letter)
    return out


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


def descend_inflation_oracle(c, fq, max_len: int = 6) -> FiniteCocycle:
    """Per-word collapse of an inflated datum: every normal form up to max_len
    is enumerated with its twist and quotient image, and its twist compared
    with the first one seen on its fiber.  The oracle of `descend_inflation`,
    which reaches the same verdict from (last letter, quotient image) states."""
    sig = c.sig
    if fq.sig != sig:
        raise SignatureMismatch("quotient data does not match the twist datum")
    G = fq.group
    start = (G.identity, c.rep.identity_matrix())
    slots: list[MatrixK | None] = [None] * G.order
    checked = 0

    # thread the quotient image and the twist together: the twist composes
    # on the left (anti-law), the quotient image on the right.
    def step(carry, letter):
        qv, mat = carry
        return (G.table[qv][fq.q_letter(letter)], c.letter_twist(letter) * mat)

    for letters, _, (qv, mat) in iter_words_raw(
            sig, max_len, carry_init=start, carry_step=step, sorted_grades=False):
        checked += 1
        if slots[qv] is None:
            slots[qv] = mat
        elif slots[qv] != mat:
            raise KernelNotTrivial(
                f"twist is not constant on the fiber over element {G.labels[qv]}: "
                "the datum does not arise by inflation")
    missing = [G.labels[i] for i, m in enumerate(slots) if m is None]
    if missing:
        raise KernelNotTrivial(
            f"enumeration bound too small: no preimage found for {missing}")
    if not slots[G.identity].is_identity():
        raise KernelNotTrivial("kernel words do not act trivially")
    fin = FiniteCocycle(G, c.field, c.rank, tuple(slots), checked, max_len)
    if not fin.check_law():
        raise KernelNotTrivial("collapsed data violates the finite composition law")
    return fin


def certify_free_oracle(sig: FPSignature, max_len: int) -> FreenessReport:
    """Per-word freeness certificate: for every enumerated component Y^j_s
    and nonidentity j-factor element g, the conjugate s^{-1} g s is built
    with `_concat`, checked to fix the component through the action code
    path, and checked to lie outside the kernel of the direct-product
    quotient.  The oracle of `certify_free_action`, which reaches the same
    report from (last letter, alpha) states."""
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    r = sig.r
    ident = sig.identity_tuple()
    stabilizers = [(j, r + j, [(g, ((r + j, g),)) for g in sig.factor(j).nonidentity()])
                   for j in range(sig.num_factors)]
    kernel_words = components = checks = 0
    for s, al, _ in iter_words_raw(sig, max_len, sorted_grades=False):
        if s and al == ident:
            kernel_words += 1
        s_inv = _inv_letters(sig, s)
        for j, fid, letters in stabilizers:
            if s and s[0][0] == fid:
                continue
            components += 1
            for g, g_letter in letters:
                w = _concat(sig, _concat(sig, s_inv, g_letter), s)
                if _alpha_tuple(sig, w) == ident:
                    raise FreenessViolation(
                        f"conjugate {g} of factor {j} lands in the kernel at s={s}")
                # the candidate must fix its component through the action code
                # path too; anything else is a reduction bug
                if _canon_rep_letters(sig, j, _concat(sig, s, w)) != s:
                    raise FreenessViolation(
                        f"stabilizer candidate failed to fix ({j},{s})")
                checks += 1
    witnesses = []
    for j in range(sig.num_factors):
        G = sig.factor(j)
        if G.order == 1:
            continue
        g = G.nonidentity()[0]
        w = FPWord(sig, ((r + j, g),))
        base = ComponentIndex(j, FPWord(sig, ()))
        if component_action(w, base) != base:
            raise FreenessViolation(
                "expected full-group witness failed: factor letter moved its base")
        witnesses.append(f"g{j + 1}:{G.labels[g]} fixes Y^{j + 1}_e")
    return FreenessReport(sig.describe(), max_len, "stabilizer-enumeration",
                          kernel_words, components, checks, tuple(witnesses), True)
