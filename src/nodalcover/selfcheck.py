"""The acceptance suite: every exit criterion as an executable check.

Each criterion function returns (passed, detail).  run_criterion times one
CRITERIA entry on a generator seeded by its number, so reports are
reproducible, and returns a `CheckResult`, a plain class; run_all runs every
entry in order.  The pytest acceptance module and the CLI selftest both go
through run_criterion, so the gate cannot drift between the two entry points.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import time
from collections import Counter

from .covering import (
    ComponentIndex,
    FundamentalDomain,
    NodeClass,
    SmoothClass,
    certify_free_action,
    component_action,
    cover_witness,
    enumerate_components,
    find_separating_open,
    fundamental_domain,
)
from .curves import (
    NodalCurve,
    betti_rank,
    chain_curve_for_signature,
    pi1_presentation,
)
from .descent import (
    CorruptedCocycle,
    check_cocycle,
    datum_from_rep,
    det_valuation_conserved,
    hom_cocycle,
    integralize,
)
from .errors import TrivialW
from .field import FunctionField, MatrixK
from .groups import (
    FPSignature,
    FPWord,
    cyclic_group,
    dihedral_group,
    fp_normalize,
    iter_words_raw,
    kernel_words,
    symmetric_group,
)
from .hopf import QuotientTower, function_hopf, tower_hull
from .reps import (
    ContinuousRep,
    FiniteQuotientRep,
    hom_from_generator_images,
    rep_tensor,
    trivial_rep,
)
from .specialize import commuting_square_check, sp_pipeline, sp_tensor_certificate
from .stratified import K_RELATIVE, fdiv_from_rep, hom_fdiv


class CheckResult:
    """One criterion's outcome, as `run_criterion` timed it."""

    def __init__(self, criterion: int, name: str, passed: bool, seconds: float,
                 time_bound: float | None, detail: str):
        self.criterion = criterion
        self.name = name
        self.passed = passed
        self.seconds = seconds
        self.time_bound = time_bound
        self.detail = detail

    @property
    def in_time(self) -> bool:
        return self.time_bound is None or self.seconds < self.time_bound

    def line(self) -> str:
        status = "PASS" if (self.passed and self.in_time) else "FAIL"
        bound = f" (< {self.time_bound:.0f}s)" if self.time_bound else ""
        return (f"[{status}] criterion {self.criterion:2d} {self.name}: "
                f"{self.detail} [{self.seconds:.2f}s{bound}]")


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def _random_curve(rng: random.Random) -> NodalCurve:
    n_comp = rng.randint(1, 8)
    max_nodes = rng.randint(max(1, n_comp - 1), 14)
    pair_list = [(rng.randrange(k), k) for k in range(1, n_comp)]  # spanning tree
    while len(pair_list) < max_nodes:
        pair_list.append((rng.randrange(n_comp), rng.randrange(n_comp)))
    comps = [[f"C{i}", []] for i in range(n_comp)]
    nodes = []
    for k, (a, b) in enumerate(pair_list):
        ba, bb = f"b{k}a", f"b{k}b"
        comps[a][1].append(ba)
        comps[b][1].append(bb)
        nodes.append((f"n{k:02d}", (f"C{a}", ba), (f"C{b}", bb)))
    return NodalCurve.build([(c, tuple(bs)) for c, bs in comps], nodes)


def _dfs_tree_edge_count(curve: NodalCurve) -> int:
    """Independent spanning-tree oracle: edges a DFS tree uses."""
    adj: dict[str, list[tuple[str, str]]] = {cid: [] for cid in curve.component_ids}
    for n in curve.nodes:
        a, b = n.ends[0][0], n.ends[1][0]
        adj[a].append((n.id, b))
        adj[b].append((n.id, a))
    seen = {curve.component_ids[0]}
    stack = [curve.component_ids[0]]
    while stack:
        v = stack.pop()
        for _, w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) - 1


@functools.cache
def _group_pool():
    return [cyclic_group(2), cyclic_group(3), cyclic_group(4), cyclic_group(6),
            cyclic_group(12), symmetric_group(3), dihedral_group(4)]


def _random_word(rng: random.Random, sig: FPSignature, syllables: int) -> FPWord:
    raw = []
    for _ in range(syllables):
        fid = rng.randrange(sig.r + sig.num_factors)
        if fid < sig.r:
            raw.append((fid, rng.choice([-3, -2, -1, 1, 2, 3])))
        else:
            raw.append((fid, rng.randrange(sig.factor(fid - sig.r).order)))
    return fp_normalize(sig, raw)


def _sig_with_pres(r: int, groups) -> tuple[FPSignature, "Pi1Presentation"]:
    pres = pi1_presentation(chain_curve_for_signature(r, len(groups)))
    return FPSignature(r, tuple(groups)), pres


def _random_gl(rng: random.Random, field: FunctionField, n: int) -> MatrixK:
    while True:
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                coeffs = [rng.randrange(field.p) for _ in range(rng.randint(1, 2))]
                row.append(field.rf(tuple(coeffs)))
            rows.append(tuple(row))
        M = MatrixK(field, tuple(rows))
        if not M.det().is_zero():
            shift = rng.choice([-1, 0, 0, 1])
            if shift:
                M = M.scale(field.t_power(shift))
            return M


def _involution_pool(field: FunctionField, n: int) -> list[MatrixK]:
    if n == 1:
        return [MatrixK.from_rows(field, [["1"]]),
                MatrixK.from_rows(field, [[str(field.p - 1)]])]
    neg = str(field.p - 1)
    return [MatrixK.identity(field, 2),
            MatrixK.from_rows(field, [["0", "1"], ["1", "0"]]),
            MatrixK.from_rows(field, [[neg, "0"], ["0", neg]]),
            MatrixK.from_rows(field, [["1", "0"], ["0", neg]])]


def _random_rank_le2_rep(rng: random.Random, field: FunctionField,
                         pres, Z2) -> ContinuousRep:
    n = rng.choice([1, 2])
    z_imgs = [_random_gl(rng, field, n) for _ in range(pres.r)]
    ident = MatrixK.identity(field, n)
    invol = rng.choice(_involution_pool(field, n))
    return ContinuousRep.build(pres, field, z_imgs, (Z2,), ((ident, invol),))


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------

def criterion_1(rng) -> tuple[bool, str]:
    for _ in range(200):
        curve = _random_curve(rng)
        rank = betti_rank(curve)
        if rank != len(curve.nodes) - _dfs_tree_edge_count(curve):
            return False, f"betti mismatch on a curve with {len(curve.nodes)} nodes"
        r = pi1_presentation(curve).r
        if rank != r:
            return False, f"betti rank {rank}, but the presentation leaves {r} nodes off its tree"
    return True, ("200 random curves agree with the spanning-tree oracle "
                  "and with their presentations' Z generators")


def criterion_2(rng) -> tuple[bool, str]:
    pool = _group_pool()
    checks = 0
    while checks < 1000:
        r = rng.randint(0, 3)
        n_fac = rng.randint(0 if r else 1, 2)
        groups = tuple(rng.choice(pool) for _ in range(n_fac))
        sig = FPSignature(r, groups)
        w1, w2, w3 = (_random_word(rng, sig, rng.randint(0, 5)) for _ in range(3))
        if (w1 * w2) * w3 != w1 * (w2 * w3):
            return False, "associativity failed"
        if not (w1 * w1.inv()).is_identity():
            return False, "inverse failed"
        if FPWord(sig, ()) * w1 != w1 or w1 * FPWord(sig, ()) != w1:
            return False, "identity law failed"
        checks += 3
    return True, f"{checks} randomized identity/inverse/associativity checks"


def criterion_3(rng) -> tuple[bool, str]:
    cases = [
        (1, (cyclic_group(2), cyclic_group(2))),
        (2, (cyclic_group(2), cyclic_group(3))),
        (1, (symmetric_group(3), cyclic_group(2))),
    ]
    details = []
    for r, groups in cases:
        sig = FPSignature(r, groups)
        report = certify_free_action(sig, 6)
        counted, by_word = (report.kernel_words, report.components), _free_counts_by_word(sig, 6)
        if counted != by_word:
            return False, (f"{sig.describe()}: {counted} kernel words and components, "
                           f"the per-word walk finds {by_word}")
        details.append(f"{sig.describe()}: {report.kernel_words} kernel words, "
                       f"{report.components} components")
    return True, "; ".join(details) + ", as counted word by word"


def _alpha_by_letters(sig: FPSignature, letters) -> tuple[int, ...]:
    """alpha as one factor-table product per letter, apart from the
    library's `_alpha_tuple`."""
    coords = [G.identity for G in sig.factors]
    for fid, v in letters:
        if fid >= sig.r:
            j = fid - sig.r
            coords[j] = sig.factors[j].table[coords[j]][v]
    return tuple(coords)


def _free_counts_by_word(sig: FPSignature, max_len: int) -> tuple[int, int]:
    """(kernel words, components) up to max_len, one normal form at a time:
    the kernel test by `_alpha_by_letters`, and a component Y^j_s counted
    through each word s once for every factor j it does not start with.
    `certify_free_action` counts the same by last letter, from states."""
    ident = sig.identity_tuple()
    kernel = components = 0
    for letters, _, _ in iter_words_raw(sig, max_len):
        if letters and _alpha_by_letters(sig, letters) == ident:
            kernel += 1
        starts_in_a_factor = bool(letters) and letters[0][0] >= sig.r
        components += sig.num_factors - starts_in_a_factor
    return kernel, components


def _witness_fault(sig: FPSignature, core, target, t: FPWord) -> str | None:
    """Why t is no coverage witness for target, or None: t must lie in
    ker alpha and carry a component of the domain's core onto target."""
    if _alpha_by_letters(sig, t.letters) != sig.identity_tuple():
        return "outside ker alpha"
    start = component_action(t.inv(), target)
    if start not in core or component_action(t, start) != target:
        return "carries no core component onto its target"
    return None


def criterion_4(rng) -> tuple[bool, str]:
    cases = [
        (1, (cyclic_group(2), cyclic_group(2))),
        (2, (cyclic_group(2), cyclic_group(3))),
    ]
    totals = []
    for r, groups in cases:
        sig = FPSignature(r, groups)
        dom = fundamental_domain(sig, FPWord(sig, ((0, 1),)))
        core = frozenset(dom.core)
        targets = enumerate_components(sig, 6)
        for target in targets:
            fault = _witness_fault(sig, core, target, cover_witness(dom, target))
            if fault:
                return False, f"{sig.describe()}: witness for {target} {fault}"
        # negative controls: the base target's witness times a factor letter
        # must fail, and a domain from that letter, outside ker alpha, must
        # be refused
        letter = FPWord(sig, ((r, 1),))
        if not _witness_fault(sig, core, targets[0], cover_witness(dom, targets[0]) * letter):
            return False, f"{sig.describe()}: a tampered witness passed"
        try:
            FundamentalDomain(sig, letter)
            return False, f"{sig.describe()}: a domain from a non-kernel word was built"
        except TrivialW:
            totals.append(f"{sig.describe()}: {len(targets)} witnesses in ker alpha from "
                          "the core, tampered witness and non-kernel word refused")
    return True, "; ".join(totals)


def _meets_by_word(sig: FPSignature, components, max_len: int) -> tuple[int, int, int]:
    """(kernel words, empty meets, one-sided meets) of the open through
    `components`, one kernel word at a time: w meets it when it carries one
    of them onto one of them.  `find_separating_open` counts the same from
    states and from its 2|G_j| candidate words."""
    kernel = meets = 0
    for w in kernel_words(sig, max_len):
        kernel += 1
        meets += any(component_action(w, c) in components for c in components)
    return kernel, kernel - meets, meets


def _open_components(sig: FPSignature, presentation, cl) -> tuple:
    """The components of the separating open at class `cl`, read off the
    curve of `presentation` (the chain curve of `sig` when None), with each
    word normalized by `fp_normalize`: the component of u = sigma(coords)
    for a smooth class, and for a node class the component of u over the
    node's first end and that of z_{i+1} u over its second, glue z_{i+1}
    at the i-th loop node and none at a tree node.  `find_separating_open`
    takes these from `node_lifts`."""
    u = [(sig.r + j, g) for j, g in enumerate(cl.coords) if g != sig.factor(j).identity]
    if isinstance(cl, SmoothClass):
        return (ComponentIndex(cl.j, sig, fp_normalize(sig, u).letters),)
    if presentation is None:
        presentation = pi1_presentation(chain_curve_for_signature(sig.r, sig.num_factors))
    curve = presentation.curve
    position = {cid: j for j, (cid, _) in enumerate(curve.components)}
    (a, _), (b, _) = next(n.ends for n in curve.nodes if n.id == cl.node_id)
    loops = presentation.loop_nodes
    glue = [(loops.index(cl.node_id), 1)] if cl.node_id in loops else []
    return (ComponentIndex(position[a], sig, fp_normalize(sig, u).letters),
            ComponentIndex(position[b], sig, fp_normalize(sig, glue + u).letters))


def criterion_5(rng) -> tuple[bool, str]:
    Z2 = cyclic_group(2)
    triangle = NodalCurve.build(
        [("C1", ("a", "b")), ("C2", ("a", "b")), ("C3", ("a", "b"))],
        [("n0", ("C1", "b"), ("C2", "a")),
         ("n1", ("C2", "b"), ("C3", "a")),
         ("n2", ("C3", "b"), ("C1", "a"))])
    pres = pi1_presentation(triangle)
    tri = FPSignature(pres.r, (Z2, Z2, Z2))
    chain = FPSignature(1, (Z2, cyclic_group(3)))  # on its chain curve
    cases = [
        (1, tri, pres, SmoothClass(0, (0, 1, 1))),
        (2, tri, pres, NodeClass("n1", (1, 0, 1))),
        (2, chain, None, NodeClass("n0", (1, 2))),
        (2, chain, None, NodeClass("x0", (1, 2))),  # a self-node: one-sided meets exist
    ]
    details = []
    for case, sig, curve_pres, cl in cases:
        v = find_separating_open(cl, sig, max_len=6, presentation=curve_pres)
        counted = (v.kernel_words_checked, v.empty_meets, v.one_sided_meets)
        sides = _open_components(sig, curve_pres, cl)
        if v.components != sides:
            return False, (f"{cl}: the open runs through {', '.join(map(str, v.components))}; "
                           f"the curve gives {', '.join(map(str, sides))}")
        by_word = _meets_by_word(sig, sides, 6)
        if v.case != case or counted != by_word:
            return False, (f"{cl}: case {v.case} with {counted} kernel words, empty and "
                           f"one-sided meets; expected case {case}, and the per-word "
                           f"walk finds {by_word}")
        where = f"node {cl.node_id}" if case == 2 else "a smooth point"
        details.append(f"case {case} at {where} of {sig.describe()}: {counted[0]} kernel "
                       f"words, {counted[1]} empty, {counted[2]} one-sided")
    return True, "; ".join(details) + ", as counted word by word"


def _brute_rref_dim(field: FunctionField, rows: list[list]) -> int:
    """Independent elimination used as the hom-dimension oracle."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if not work[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [e * inv for e in work[rank]]
        for r in range(len(work)):
            if r != rank and not work[r][col].is_zero():
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return ncols - rank


def _brute_hom_dim(c1, c2, max_len: int) -> int:
    """Stack the twisted-morphism equations over every enumerated word and
    eliminate with the local rref: an oracle independent of the generator
    shortcut and of field.solve_linear."""
    field = c1.field
    m1 = c1.twist_map(max_len)
    m2 = c2.twist_map(max_len)
    n1, n2 = c1.rank, c2.rank
    zero = field.zero()
    rows = []
    for letters, A in m1.items():
        B = m2[letters]
        for i in range(n2):
            for j in range(n1):
                row = [zero] * (n1 * n2)
                for k in range(n2):
                    row[k * n1 + j] = row[k * n1 + j] + B.entries[i][k]
                for l in range(n1):
                    row[i * n1 + l] = row[i * n1 + l] - A.entries[l][j]
                rows.append(row)
    return _brute_rref_dim(field, rows)


def criterion_6(rng) -> tuple[bool, str]:
    field = FunctionField(3)
    Z2 = cyclic_group(2)
    sig, pres = _sig_with_pres(1, (Z2,))
    ident1 = MatrixK.identity(field, 1)
    neg1 = MatrixK.from_rows(field, [["2"]])
    rep_b = ContinuousRep.build(pres, field, [MatrixK.from_rows(field, [["t"]])],
                                (Z2,), ((ident1, neg1),))
    rep_a = ContinuousRep.build(
        pres, field, [MatrixK.from_rows(field, [["t", "1"], ["0", "1"]])],
        (Z2,), ((MatrixK.identity(field, 2),
                 MatrixK.from_rows(field, [["0", "1"], ["1", "0"]])),))
    rep_c = ContinuousRep.build(
        pres, field,
        [MatrixK.from_rows(field, [["0", "1", "0"], ["0", "0", "1"], ["t", "0", "0"]])],
        (Z2,), ((MatrixK.identity(field, 3),
                 MatrixK.from_rows(field, [["0", "1", "0"], ["1", "0", "0"],
                                           ["0", "0", "1"]])),))
    for rep in (rep_a, rep_b, rep_c):
        cert = check_cocycle(datum_from_rep(rep), 6)
        if not cert.passed:
            return False, f"cocycle failed ({cert.witness})"
    bad = CorruptedCocycle(datum_from_rep(rep_a), FPWord(sig, ((0, 1),)),
                           MatrixK.from_rows(field, [["1", "1"], ["1", "0"]]))
    bad_cert = check_cocycle(bad, 3)
    if bad_cert.passed or bad_cert.witness is None:
        return False, "corrupted datum slipped through without a witness"
    pairs = [(rep_a, rep_a), (rep_a, rep_b), (rep_b, rep_b), (rep_c, rep_a)]
    dims = []
    for r1, r2 in pairs:
        basis = hom_cocycle(datum_from_rep(r1), datum_from_rep(r2))
        oracle = _brute_hom_dim(datum_from_rep(r1), datum_from_rep(r2), 3)
        if len(basis) != oracle:
            return False, f"hom dim {len(basis)} vs brute-force {oracle}"
        dims.append(len(basis))
    return True, (f"3 data pass at L=6, corrupted control fails with witness "
                  f"{bad_cert.witness}, hom dims {dims} match brute force")


def criterion_7(rng) -> tuple[bool, str]:
    field = FunctionField(3)
    Z2 = cyclic_group(2)
    sig, pres = _sig_with_pres(1, (Z2,))
    kernel = list(kernel_words(sig, 3))
    conserved = 0
    for trial in range(50):
        rep = _random_rank_le2_rep(rng, field, pres, Z2)
        assignment = integralize(datum_from_rep(rep).restricted(), max_len=3)
        for c0 in assignment.orbit_reps:
            for w in kernel:
                if not det_valuation_conserved(assignment, w, c0):
                    return False, f"determinant valuation drifted at trial {trial}"
                conserved += 1
    return True, f"{conserved} determinant-valuation checks over 50 random data"


def criterion_8(rng) -> tuple[bool, str]:
    field = FunctionField(3)
    Z2 = cyclic_group(2)
    last_pair = None
    for r in (1, 2):
        sig, pres = _sig_with_pres(r, (Z2,))
        n_pairs = 25
        for _ in range(n_pairs):
            r1 = _random_rank_le2_rep(rng, field, pres, Z2)
            r2 = _random_rank_le2_rep(rng, field, pres, Z2)
            cert = sp_tensor_certificate(r1, r2)
            if not cert.passed:
                return False, f"tensor twist mismatch over r={r}"
            if r1.rank == r2.rank == 1:
                last_pair = (r1, r2)
    full = sp_pipeline(rep_tensor(*last_pair), max_len=3)
    if not full.cocycle.passed:
        return False, "full pipeline failed on a tensor product"
    return True, ("50 random pairs: tensor twists equal Kronecker twists on all "
                  "generators; full pipeline passes on a tensor product")


def criterion_9(rng) -> tuple[bool, str]:
    details = []
    # sign rep of the two-element group over F_3, one loop
    f3 = FunctionField(3)
    Z2 = cyclic_group(2)
    sig1, pres1 = _sig_with_pres(1, (Z2,))
    fq1 = FiniteQuotientRep.build(
        pres1, f3, (Z2,), Z2, [1], [(0, 1)],
        (MatrixK.identity(f3, 1), MatrixK.from_rows(f3, [["2"]])))
    sq1 = commuting_square_check(fq1, pres1, max_len=6)
    details.append(f"Z2 sign: {sq1.words_checked} words")
    # order-three quotient over F_7 (cube roots of unity live there), two loops
    f7 = FunctionField(7)
    Z3 = cyclic_group(3)
    sig2, pres2 = _sig_with_pres(2, (Z3,))
    omega = MatrixK.from_rows(f7, [["2"]])  # 2^3 = 8 = 1 mod 7
    fq2 = FiniteQuotientRep.build(
        pres2, f7, (Z3,), Z3, [1, 2], [(0, 1, 2)],
        (MatrixK.identity(f7, 1), omega, omega * omega))
    sq2 = commuting_square_check(fq2, pres2, max_len=6)
    details.append(f"Z3: {sq2.words_checked} words")
    # two-dimensional rep of the symmetric group on three points over F_7
    S3 = symmetric_group(3)
    sig3, pres3 = _sig_with_pres(1, (S3,))
    swap = MatrixK.from_rows(f7, [["0", "1"], ["1", "0"]])
    rot = MatrixK.from_rows(f7, [["0", "6"], ["1", "6"]])  # order 3
    hom = hom_from_generator_images(f7, S3, [swap, rot], 2)
    fq3 = FiniteQuotientRep.build(
        pres3, f7, (S3,), S3, [S3.generators[1]],
        [tuple(range(S3.order))], hom)
    sq3 = commuting_square_check(fq3, pres3, max_len=6)
    details.append(f"S3 2-dim: {sq3.words_checked} words")
    return True, "; ".join(details)


def criterion_10(rng) -> tuple[bool, str]:
    field = FunctionField(3)
    Z2 = cyclic_group(2)
    sig, pres = _sig_with_pres(1, (Z2,))
    unit = trivial_rep(pres, field, (Z2,))
    d = fdiv_from_rep(unit, K_RELATIVE)
    hb = hom_fdiv(d, d)
    if hb.dimension != 1 or hb.scalar_field != "F_3":
        return False, f"unit End dimension {hb.dimension} over {hb.scalar_field}"
    entry = hb.basis[0].entries[0][0]
    if entry.den != (1,) or len(entry.num) > 1:
        return False, "unit End solution is not a prime-field constant"
    # brute-force chain oracle: low-degree elements with five nested p-th roots
    survivors = []
    coeff_range = range(3)
    polys = [tuple(c) for c in itertools.product(coeff_range, repeat=3)]
    for num in polys:
        for den in polys:
            if not any(den):
                continue
            f = field.rf(num, den)
            ok = True
            g = f
            for _ in range(5):
                if g.is_zero():
                    break
                if not g.is_pth_power():
                    ok = False
                    break
                g = g.pth_root()
            if ok:
                survivors.append(f)
    consts = {field.rf(c) for c in range(3)}
    if set(survivors) != consts:
        return False, f"chain oracle found non-constant survivors: {len(survivors)}"
    return True, ("unit End has dimension 1 over F_3; "
                  "chain oracle survivors are exactly the 3 constants")


def _hopf_fault(H, antipode) -> str | None:
    """The first Hopf law that `H.comult`, the counit and `antipode` break
    at a basis vector e_g, or None: coassociativity, both counit laws and
    m (S (x) id) Delta(e_g) = eps(e_g) 1, by dense integer arithmetic on
    coordinate tuples, apart from the proof in `HopfAlgebra`'s docstring."""
    G, n, e = H.group, H.dim, H.group.identity
    basis = [H.basis_vec(g) for g in range(n)]
    cops = [H.comult(v) for v in basis]

    def combine(terms):  # the sum of c v over the pairs (c, v)
        terms = list(terms)
        return tuple(sum(c * v[i] for c, v in terms) for i in range(n))

    for g, dg in enumerate(cops):
        left, right = Counter(), Counter()  # (Delta (x) id) and (id (x) Delta) of dg
        for (h, k), c in dg.items():
            for (x, y), d in cops[h].items():
                left[x, y, k] += c * d
            for (x, y), d in cops[k].items():
                right[h, x, y] += c * d
        if left != right:
            return f"coassociativity fails at e_{G.labels[g]}"
        if not (combine((c * basis[h][e], basis[k]) for (h, k), c in dg.items()) == basis[g]
                == combine((c * basis[k][e], basis[h]) for (h, k), c in dg.items())):
            return f"counit law fails at e_{G.labels[g]}"
        conv = combine((c, tuple(map(operator.mul, antipode(basis[h]), basis[k])))
                       for (h, k), c in dg.items())
        if conv != (basis[g][e],) * n:
            return f"antipode law fails at e_{G.labels[g]}"
    return None


def criterion_11(rng) -> tuple[bool, str]:
    groups = (cyclic_group(2), cyclic_group(4), symmetric_group(3), dihedral_group(4))
    for G in groups:
        H = function_hopf(G)
        fault = _hopf_fault(H, H.antipode)
        if fault:
            return False, f"{G.name}: {fault}"
    # negative controls: the identity in place of the antipode breaks the
    # antipode law on a group with an element of order > 2, and a transition
    # map that is not a homomorphism is refused
    S3 = symmetric_group(3)
    if not _hopf_fault(function_hopf(S3), lambda v: v):
        return False, "S3 passed the antipode law with the identity map as antipode"
    try:
        QuotientTower.build([cyclic_group(2), S3], [[x % 2 for x in range(6)]])
    except ValueError:
        pass
    else:
        return False, "a tower map that is no homomorphism was accepted"
    report = tower_hull(QuotientTower.build(
        [cyclic_group(2), cyclic_group(4), cyclic_group(8)],
        [[x % 2 for x in range(4)], [x % 4 for x in range(8)]]))
    if report.dimensions != (2, 4, 8):
        return False, f"tower dual dimensions {report.dimensions}"
    return True, (f"coassociativity, counit and antipode hold on every basis vector of "
                  f"{', '.join(G.name for G in groups)}; identity antipode on S3 and a "
                  f"non-homomorphic tower map refused; tower dual dimensions {report.dimensions}")


CRITERIA = [
    (1, "betti-rank correctness", 1.0, criterion_1),
    (2, "free-product group axioms", 5.0, criterion_2),
    (3, "freeness certificate", 30.0, criterion_3),
    (4, "fundamental-domain coverage", 30.0, criterion_4),
    (5, "separating-open cases", None, criterion_5),
    (6, "cocycle and hom suite", None, criterion_6),
    (7, "integral-model transport", None, criterion_7),
    (8, "tensor functoriality", None, criterion_8),
    (9, "commuting square", 10.0, criterion_9),
    (10, "stratified unit endomorphisms", None, criterion_10),
    (11, "hopf axioms and towers", 5.0, criterion_11),
]


def run_criterion(entry, seed: int = 42) -> CheckResult:
    """Run one CRITERIA entry on its own seeded generator, timed."""
    num, name, bound, fn = entry
    start = time.perf_counter()
    try:
        passed, detail = fn(random.Random(seed * 1009 + num))
    except Exception as exc:  # a crash is a failed criterion, not a crash of the suite
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(num, name, passed, time.perf_counter() - start, bound, detail)


def run_all(seed: int = 42, echo=None) -> list[CheckResult]:
    results = []
    for entry in CRITERIA:
        res = run_criterion(entry, seed)
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results
