"""Shared builders for the test suite."""

from __future__ import annotations

import random
from types import SimpleNamespace

from nodalcover.covering import (
    ComponentIndex,
    FiniteCover,
    FreenessReport,
    FundamentalDomain,
    NodeClass,
    SeparatingOpen,
    SmoothClass,
    component_action,
    enumerate_components,
    sigma_word,
)
from nodalcover.curves import (
    NodalCurve,
    Pi1Presentation,
    chain_curve_for_signature,
    pi1_presentation,
)
from nodalcover.descent import FiniteCocycle, LatticeAssignment
from nodalcover.errors import (
    BadElementIndex,
    BadFactorIndex,
    DimensionMismatch,
    DisconnectedCurve,
    KernelNotTrivial,
    PresentationMismatch,
    SignatureMismatch,
    SingularBasis,
    TransportConflict,
)
from nodalcover.field import (
    INFINITY,
    FunctionField,
    LatticeK,
    LinearSolution,
    MatrixK,
    lattice_hermite,
)
from nodalcover.groups import (
    FiniteGroup,
    FPSignature,
    FPWord,
    _alpha_tuple,
    _concat,
    _inv_letters,
    cyclic_group,
    fp_normalize,
    iter_words_raw,
    kernel_words,
    product_subgroup,
    shortlex_key,
    symmetric_group,
)
from nodalcover.hopf import HopfAlgebra, TowerReport
from nodalcover.reps import (
    ContinuousRep,
    FiniteQuotientRep,
    hom_from_generator_images,
    solve_intertwining,
)
from nodalcover.stratified import TensorCertificate

F3 = FunctionField(3)
F5 = FunctionField(5)
F7 = FunctionField(7)


def sig_with_pres(r, groups):
    pres = pi1_presentation(chain_curve_for_signature(r, len(groups)))
    return FPSignature(r, tuple(groups)), pres


def pi1_presentation_oracle(components, nodes) -> tuple:
    """Three walks where `NodalCurve` makes one forest and `Pi1Presentation`
    one tree walk: a DFS of the raw (id, branches) components and (id, end,
    end) nodes for connectivity, refusing a disconnected graph before any
    curve is built, Kruskal with union-find for the tree, and a fresh DFS for
    each tree path, with nodes looked up by id.  Returns the presentation's
    (curve, r, spanning_tree, loop_nodes, base_component, path_data)."""
    vertices = [cid for cid, _ in components]
    edges = [(nid, ea[0], eb[0]) for nid, ea, eb in nodes]
    adj_all: dict[str, list[str]] = {v: [] for v in vertices}
    for _, a, b in edges:
        adj_all[a].append(b)
        adj_all[b].append(a)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in adj_all[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(vertices):
        raise DisconnectedCurve("the dual graph of the curve is not connected")
    curve = NodalCurve.build(components, nodes)

    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree, loops = [], []
    for nid, a, b in sorted(edges):  # Kruskal over lexicographic node ids
        ra, rb = find(a), find(b)
        if ra == rb:
            loops.append(nid)
        else:
            parent[ra] = rb
            tree.append(nid)

    base = min(vertices)
    node_by_id = {n.id: n for n in curve.nodes}
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in vertices}
    for nid in tree:
        n = node_by_id[nid]
        ca, cb = n.ends[0][0], n.ends[1][0]
        adj[ca].append((nid, cb))
        adj[cb].append((nid, ca))

    def tree_path(src: str, dst: str) -> tuple[str, ...]:
        if src == dst:
            return ()
        prev: dict[str, tuple[str, str]] = {}
        stack = [src]
        seen = {src}
        while stack:
            v = stack.pop()
            for nid, w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    prev[w] = (nid, v)
                    stack.append(w)
        path = []
        v = dst
        while v != src:
            nid, v = prev[v]
            path.append(nid)
        return tuple(reversed(path))

    path_data = []
    for n in sorted(curve.nodes, key=lambda n: n.id):
        ca, cb = n.ends[0][0], n.ends[1][0]
        sigma = tree_path(base, ca)
        tau = tree_path(ca, cb) if n.id in loops else (n.id,)
        path_data.append((n.id, (sigma, tau)))

    return curve, len(loops), tuple(tree), tuple(loops), base, tuple(path_data)


def count_curve_builds(monkeypatch) -> list:
    """The component ids of each `NodalCurve` built from here on.  A curve
    builds its Kruskal forest in construction and nowhere else, so this
    counts forests."""
    built = []
    check = NodalCurve.__init__

    def counted(self, components, nodes):
        built.append(tuple(cid for cid, _ in components))
        check(self, components, nodes)

    monkeypatch.setattr(NodalCurve, "__init__", counted)
    return built


def hom_failure_oracle(G: FiniteGroup, images, compose) -> tuple[int, int] | None:
    """First pair (a, b) of all |G|^2, rows first, with compose(f(a), f(b))
    != f(ab), or None.  The oracle of `FiniteGroup.hom_failure`, which scans
    only the generator columns."""
    for a in range(G.order):
        row = G.table[a]
        for b in range(G.order):
            if compose(images[a], images[b]) != images[row[b]]:
                return a, b
    return None


def normalize_letters_oracle(sig: FPSignature, raw) -> tuple[tuple[int, int], ...]:
    """Normal form of a raw letter sequence by one stack merge: each letter
    is pushed, merged with the top when both share a factor, and popped when
    the merge is trivial.  The oracle of `_normalize_letters`, which multiplies
    the letters in one at a time with `_concat`."""
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


# The smallest loop that is not a group: an identity and two-sided inverses
# (every element is its own), but (1 1) 2 = 0 2 = 2 while 1 (1 2) = 1 3 = 4.
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def associativity_failure(table) -> tuple[int, int] | None:
    """First pair (a, b), rows first, with (ab)c != a(bc) for some c, or
    None: the all-pairs oracle of the generator-column test that constructing
    a `FiniteGroup` runs.  Composing rows a and b gives a(bc) over every c,
    and row ab gives (ab)c."""
    for a, row in enumerate(table):
        for b, row_b in enumerate(table):
            if table[row[b]] != tuple(map(row.__getitem__, row_b)):
                return a, b
    return None


def closure_oracle(G: FiniteGroup, seed) -> list[int]:
    """`FiniteGroup.closure` by its own frontier loop: the subgroup generated
    by seed, in discovery order starting from the identity."""
    seen = {G.identity}
    out = [G.identity]
    frontier = [G.identity]
    gens = list(seed)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.table[x][g]
                if y not in seen:
                    seen.add(y)
                    out.append(y)
                    nxt.append(y)
        frontier = nxt
    return out


def product_subgroup_oracle(G: FiniteGroup, H: FiniteGroup, pairs, name=None):
    """`product_subgroup` with its own frontier loop over pairs: the subgroup
    of G x H the pairs generate, as a table group, and its sorted elements."""
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
    table = [[index[(G.table[a1][a2], H.table[b1][b2])] for (a2, b2) in elems]
             for (a1, b1) in elems]
    labels = [f"({G.labels[a]},{H.labels[b]})" for (a, b) in elems]
    gens = [index[p] for p in dict.fromkeys(pairs)]
    grp = FiniteGroup.from_table(table, labels=labels,
                                 name=name or f"{G.name}x{H.name}|gen", generators=gens)
    return grp, tuple(elems)


def extend_from_generators(G, gen_images, compose, one):
    """The oracle of `hom_from_generator_images`, for any compose: the map
    with f(e) = one and f(xs) = f(x) f(s) at each element's first discovery
    from the identity, by a frontier loop; a homomorphism exactly when the
    generator images satisfy G's relations."""
    f = {G.identity: one}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s, fs in zip(G.generators, gen_images):
                y = G.table[x][s]
                if y not in f:
                    f[y] = compose(f[x], fs)
                    nxt.append(y)
        frontier = nxt
    return [f[x] for x in range(G.order)]


def raw_group(table, identity, inverse):
    """Group-shaped data that no constructor checked, for the dense oracles:
    the table, identity and inverses exactly as given."""
    m = len(table)
    return SimpleNamespace(table=table, identity=identity, inverse=inverse,
                           order=m, labels=tuple(str(i) for i in range(m)))


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


def format_word_oracle(w: FPWord) -> str:
    """Letter by letter, "zi" or "zi^e" for a Z letter and "gj:label" with
    the label read off the factor group for a finite one, joined by " * ";
    "e" for the identity.  The oracle of `format_word`'s per-signature table."""
    if not w.letters:
        return "e"
    r = w.sig.r
    parts = []
    for fid, v in w.letters:
        if fid < r:
            parts.append(f"z{fid + 1}" if v == 1 else f"z{fid + 1}^{v}")
        else:
            parts.append(f"g{fid - r + 1}:{w.sig.factor(fid - r).labels[v]}")
    return " * ".join(parts)


def rank1_rep(field=F3, r=1):
    """z_i -> t^i, one two-element factor acting by the sign."""
    Z2 = cyclic_group(2)
    sig, pres = sig_with_pres(r, (Z2,))
    z_imgs = [MatrixK(field, ((field.t_power(i + 1),),)) for i in range(r)]
    one = MatrixK.identity(field, 1)
    neg = MatrixK(field, ((field.rf(-1),),))
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


def intertwiners(r1: ContinuousRep, r2: ContinuousRep) -> list[MatrixK]:
    """Oracle for End/Hom on the rho side: a basis of
    {f : rho2(gamma) f = f rho1(gamma)} from the generator images, which
    multiplicativity extends to every word.  Full-scope `hom_cocycle` solves
    the same space from the letter twists H = rho^-1 and must return the same
    basis."""
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


def kernel_hom_oracle(c1, c2, max_len: int) -> list[MatrixK]:
    """Truncated kernel-scope Hom: the intertwining system over every
    nonidentity kernel word of generator length <= max_len.  The oracle of
    kernel-scope `hom_cocycle`, which solves on the free basis (Kurosh rank
    1 - |Q| chi) of ker alpha; the two agree once max_len reaches the basis
    words' length bound 2N + 1."""
    pairs = [(c1.twist(w), c2.twist(w)) for w in kernel_words(c1.sig, max_len)]
    return solve_intertwining(c1.field, c1.rank, c2.rank, pairs)


def node_ends_oracle(sig: FPSignature, presentation: Pi1Presentation | None) -> dict:
    """Node id -> (ja, jb, glue), read off the curve of `presentation` (the
    chain curve of `sig` by default): the positions among the curve's
    components of the node's first and second ends, and the raw letters of
    z_{i+1} when the node is the i-th loop node, else none.  The oracle of
    the records `node_lifts` returns."""
    if presentation is None:
        presentation = pi1_presentation(chain_curve_for_signature(sig.r, sig.num_factors))
    position = {cid: j for j, (cid, _) in enumerate(presentation.curve.components)}
    loops = presentation.loop_nodes
    return {n.id: (position[n.ends[0][0]], position[n.ends[1][0]],
                   [(loops.index(n.id), 1)] if n.id in loops else [])
            for n in presentation.curve.nodes}


def lift_sides_oracle(sig: FPSignature, ends: tuple, raw) -> tuple:
    """The components joined by the lift at the word with raw letters `raw`
    of a node whose `node_ends_oracle` entry is ``ends``: the word's
    component over the first end, and over the second that of glue times
    the word, each word normalized by `fp_normalize`."""
    ja, jb, glue = ends
    return (ComponentIndex(ja, sig, fp_normalize(sig, raw).letters),
            ComponentIndex(jb, sig, fp_normalize(sig, glue + list(raw)).letters))


def separating_open_oracle(removed: SmoothClass | NodeClass, sig: FPSignature, max_len: int = 6,
                           presentation: Pi1Presentation | None = None) -> SeparatingOpen:
    """Per-word separating open through the removed orbit class: every
    nonidentity kernel word up to max_len acts on the open's components, and
    a word meeting it both ways raises.  The oracle of `find_separating_open`,
    which counts the kernel words by states and its meets from the 2|G_j|
    candidate words."""
    kernel = list(kernel_words(sig, max_len))
    if isinstance(removed, SmoothClass):
        c = ComponentIndex(removed.j, sig, sigma_word(sig, removed.coords).letters)
        for w in kernel:
            if component_action(w, c) == c:
                raise AssertionError("case 1 separating open hit a fixed component")
        return SeparatingOpen(1, (c,), len(kernel), 0)
    ends = node_ends_oracle(sig, presentation)[removed.node_id]
    c_a, c_b = lift_sides_oracle(sig, ends, sigma_word(sig, removed.coords).letters)
    one_sided = 0
    for w in kernel:
        hit_ba = component_action(w, c_b) == c_a
        hit_ab = component_action(w, c_a) == c_b
        if hit_ba and hit_ab:
            raise AssertionError(f"double overlap at w={w}")
        one_sided += hit_ba or hit_ab
    return SeparatingOpen(2, (c_a, c_b), len(kernel), one_sided)


def solve_linear_oracle(M: MatrixK, rhs: MatrixK) -> LinearSolution:
    """Gaussian elimination on the first nonzero pivot of each column, with
    dense row updates.  The oracle of `solve_linear`, which pivots on the
    smallest entry and updates only the pivot row's nonzero columns; both
    return the reduced row echelon form's solution."""
    if M.rows != rhs.rows:
        raise DimensionMismatch("matrix and right-hand side have different heights")
    F = M.field
    n, m, k = M.rows, M.cols, rhs.cols
    a = [list(M.entries[i]) + list(rhs.entries[i]) for i in range(n)]
    pivots: list[int] = []
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, n) if a[r][col].num), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col].inverse()
        a[row] = [e * inv for e in a[row]]
        for r in range(n):
            if r != row and a[r][col].num:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    zero, one = F.zero(), F.one()
    for r in range(row, n):
        if any(a[r][m + j].num for j in range(k)):
            return LinearSolution(None, ())
    part = [[zero] * k for _ in range(m)]
    for r, col in enumerate(pivots):
        for j in range(k):
            part[col][j] = a[r][m + j]
    free = [c for c in range(m) if c not in pivots]
    kernel = []
    for fcol in free:
        vec = [zero] * m
        vec[fcol] = one
        for r, col in enumerate(pivots):
            vec[col] = -a[r][fcol]
        kernel.append(MatrixK(F, tuple((e,) for e in vec)))
    return LinearSolution(MatrixK(F, tuple(tuple(r) for r in part)), tuple(kernel))


def det_oracle(M: MatrixK):
    """Gaussian elimination over K on the first nonzero pivot of each column,
    inverting each pivot.  The oracle of `MatrixK.det`, which eliminates
    fraction-free (Bareiss) on the same pivots."""
    if M.rows != M.cols:
        raise DimensionMismatch("determinant needs a square matrix")
    n = M.rows
    m = [list(row) for row in M.entries]
    acc = M.field.one()
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col].num), None)
        if piv is None:
            return M.field.zero()
        if piv != col:
            m[piv], m[col] = m[col], m[piv]
            sign = -sign
        acc = acc * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, n):
            if m[r][col].num:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return acc if sign > 0 else -acc


def matrix_op_oracle(name: str, A: MatrixK, B) -> MatrixK:
    """A + B, A - B, A * B, A.kron(B) or A.scale(B), entry by entry through
    the checked `RationalFunction` operators.  The oracle of the `MatrixK`
    operations, which check the field once and call the unchecked kernels."""
    F = A.field
    a = A.entries
    if name == "scale":
        return MatrixK(F, tuple(tuple(B * x for x in row) for row in a))
    b = B.entries
    if name in ("+", "-"):
        out = [[a[i][j] + b[i][j] if name == "+" else a[i][j] - b[i][j]
                for j in range(A.cols)] for i in range(A.rows)]
    elif name == "*":
        out = [[sum((a[i][k] * b[k][j] for k in range(A.cols)), F.zero())
                for j in range(B.cols)] for i in range(A.rows)]
    else:
        q, s = B.rows, B.cols
        out = [[a[i // q][j // s] * b[i % q][j % s] for j in range(A.cols * s)]
               for i in range(A.rows * q)]
    return MatrixK(F, tuple(tuple(row) for row in out))


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


def _laurent_tail(f, d: int):
    """f modulo t^d A: the terms of f's t-adic expansion below exponent d."""
    F = f.field
    if f.is_zero() or f.valuation() >= d:
        return F.zero()
    v = int(f.valuation())
    num = f.num[next(i for i, c in enumerate(f.num) if c):]
    den = f.den[next(i for i, c in enumerate(f.den) if c):]
    inv0 = pow(den[0], -1, F.p)
    series = []
    for k in range(d - v):
        acc = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * series[k - i]
        series.append(acc * inv0 % F.p)
    return F.rf(tuple(series)) * F.t_power(v)


def lattice_hermite_oracle(basis: MatrixK) -> LatticeK:
    """The canonical Hermite form by elimination over K in RationalFunction
    arithmetic: bottom-up valuation pivots scaled to t^{d_i}, then each
    off-diagonal entry reduced to its Laurent tail below t^{d_i}.  The oracle
    of `lattice_hermite`, which eliminates on t-adic expansions mod t^N."""
    if basis.rows != basis.cols:
        raise SingularBasis("lattice bases must be square")
    F = basis.field
    n = basis.rows
    cols = [[basis.entries[i][j] for i in range(n)] for j in range(n)]
    for i in range(n - 1, -1, -1):
        best, bestv = None, INFINITY
        for c in range(i + 1):
            v = cols[c][i].valuation()
            if v < bestv:
                best, bestv = c, v
        if best is None or bestv == INFINITY:
            raise SingularBasis("basis is singular over K")
        cols[best], cols[i] = cols[i], cols[best]
        d = int(bestv)
        unit_inv = F.t_power(d) / cols[i][i]
        cols[i] = [e * unit_inv for e in cols[i]]
        tpow_inv = F.t_power(-d)
        for c in range(i):
            if cols[c][i].num:
                q = cols[c][i] * tpow_inv
                cols[c] = [a - q * b for a, b in zip(cols[c], cols[i])]
    for i in range(n - 1, -1, -1):
        d = int(cols[i][i].valuation())
        tpow_inv = F.t_power(-d)
        for j in range(i + 1, n):
            e = cols[j][i]
            if e.num:
                q = (e - _laurent_tail(e, d)) * tpow_inv
                if q.num:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
    entries = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return LatticeK(MatrixK(F, entries))


def is_integral_matrix(M: MatrixK) -> bool:
    return all(e.valuation() >= 0 for row in M.entries for e in row)


def is_unimodular_matrix(M: MatrixK) -> bool:
    """M lies in GL_n(A): integral entries and a unit determinant."""
    return is_integral_matrix(M) and M.det().valuation() == 0


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


def tensor_certificate_oracle(d1, d2, out) -> TensorCertificate:
    """The tensor certificate with every generator compared: each Z letter of
    `out` against the Kronecker product of the factors' letters, and each
    refined factor letter (g, h), with the refined group rebuilt by
    `product_subgroup`, against rho1(g^-1) (x) rho2(h^-1) read off the factors'
    homs.  The oracle of `tensor_fdiv`, which proves the factor letters."""
    r1, r2 = d1.generator.rep, d2.generator.rep
    checked = 0
    sig = out.generator.rep.sig
    for i in range(sig.r):
        rhs = d1.generator.letter_twist((i, 1)).kron(d2.generator.letter_twist((i, 1)))
        if out.generator.letter_twist((i, 1)) != rhs:
            return TensorCertificate(checked, False)
        checked += 1
    for j in range(sig.num_factors):
        G, H = r1.factor_groups[j], r2.factor_groups[j]
        _, elems = product_subgroup(G, H, tuple(zip(G.generators, H.generators)))
        refined = sig.factor(j)
        for idx, (g, h) in enumerate(elems):
            lhs = out.generator.letter_twist((sig.r + j, idx)) if idx != refined.identity \
                else out.generator.rep.identity_matrix()
            rhs = r1.factor_homs[j][G.inverse[g]].kron(r2.factor_homs[j][H.inverse[h]])
            if lhs != rhs:
                return TensorCertificate(checked, False)
            checked += 1
    return TensorCertificate(checked, True)


def s3_rep_2dim(field=F7):
    """Faithful two-dimensional representation of the symmetric group."""
    S3 = symmetric_group(3)
    sig, pres = sig_with_pres(1, (S3,))
    swap = MatrixK.from_rows(field, [["0", "1"], ["1", "0"]])
    rot = MatrixK.from_rows(field, [["0", "6"], ["1", "6"]])
    hom = hom_from_generator_images(field, S3, [swap, rot], 2)
    z = MatrixK.from_rows(field, [["t", "0"], ["0", "1"]])
    return ContinuousRep.build(pres, field, [z], (S3,), (hom,))


def f7_gen_mats(rng: random.Random, G: FiniteGroup, n: int) -> list[MatrixK]:
    """Images in GL_n(F_7), n = 1 or 2, of the designated generators of Z2,
    Z3, Z4 or S3 under a random hom: a matrix of order dividing the group's
    for the cyclic groups, and the trivial, sign or standard rep for the
    symmetric group."""
    ident = [["1", "0"], ["0", "1"]] if n == 2 else [["1"]]
    if G.name == "S3":
        gens = rng.choice([[ident, ident]] + ([[[["6"]], [["1"]]]] if n == 1 else
                          [[[["0", "1"], ["1", "0"]], [["0", "6"], ["1", "6"]]]]))
    else:
        gens = [rng.choice({
            ("Z2", 1): [ident, [["6"]]],
            ("Z2", 2): [ident, [["0", "1"], ["1", "0"]], [["6", "0"], ["0", "6"]]],
            ("Z3", 1): [ident, [["2"]], [["4"]]],
            ("Z3", 2): [ident, [["0", "6"], ["1", "6"]]],
            ("Z4", 1): [ident, [["6"]]],
            ("Z4", 2): [ident, [["0", "6"], ["1", "0"]]],
        }[G.name, n])]
    return [MatrixK.from_rows(F7, m) for m in gens]


def f7_hom(rng: random.Random, G: FiniteGroup, n: int) -> tuple[MatrixK, ...]:
    """A random hom of Z2, Z3, Z4 or S3 into GL_n(F_7), extended from
    `f7_gen_mats`."""
    return hom_from_generator_images(F7, G, f7_gen_mats(rng, G, n), n)


def random_tensor_pair(rng: random.Random) -> tuple[ContinuousRep, ContinuousRep]:
    """Two reps over F_7 of ranks 1 or 2 on one chain presentation, with
    r = 1 or 2 and one or two components.  Each component carries S3 in both
    reps, or one of Z2, Z3 and Z4 in each, so the designated generators pair
    up; the Z images are random in GL_n(F_7(t))."""
    r = rng.randint(1, 2)
    slots = [rng.random() < 0.3 for _ in range(rng.randint(1, 2))]
    pres = pi1_presentation(chain_curve_for_signature(r, len(slots)))
    cyclic = [cyclic_group(2), cyclic_group(3), cyclic_group(4)]
    reps = []
    for _ in range(2):
        n = rng.randint(1, 2)
        groups = [symmetric_group(3) if s3 else rng.choice(cyclic) for s3 in slots]
        zs = [random_matrix(rng, F7, n, deg=1, invertible=True) for _ in range(r)]
        reps.append(ContinuousRep.build(pres, F7, zs, groups,
                                        [f7_hom(rng, G, n) for G in groups]))
    return reps[0], reps[1]


def random_f7_quotient(rng: random.Random) -> FiniteQuotientRep:
    """A quotient rep over F_7 of Z^{*r} * G onto G, r = 0 to 2, with G one of
    Z2, Z3, Z4 and S3 mapped identically and acting by `f7_hom`."""
    G = rng.choice([cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3)])
    r = rng.randint(0, 2)
    _, pres = sig_with_pres(r, (G,))
    return FiniteQuotientRep.build(pres, F7, (G,), G, [rng.randrange(G.order) for _ in range(r)],
                                   [tuple(range(G.order))], f7_hom(rng, G, rng.randint(1, 2)))


def append_walk(sig: FPSignature, max_len: int, carry_init=None, carry_step=None):
    """Oracle enumeration by unit extension, graded but unsorted.

    Yields (letters, alpha_coords, carry).  Every normal form of length n+1
    is reached exactly once by a unit extension of its length-n prefix, and
    carry(x a) = carry_step(carry(x), a) threads along the appended letters.
    `iter_words_raw` yields the same words sorted per grade."""
    r = sig.r
    tables, idents = sig._tables, sig._idents
    grade: list[tuple] = [((), sig.identity_tuple(), carry_init)]
    yield from grade
    # per finite factor: its letter id, table, and (letter, element) extensions
    finite = [(r + j, j, tab, [((r + j, g), g) for g in range(len(tab)) if g != idents[j]])
              for j, tab in enumerate(tables)]
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
        yield from nxt
        grade = nxt


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

    for letters, _, (qv, mat) in append_walk(
            sig, max_len, carry_init=start, carry_step=step):
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
    fin = FiniteCocycle(G, tuple(slots), checked)
    if not fin.check_law():
        raise KernelNotTrivial("collapsed data violates the finite composition law")
    return fin


def integralize_pair_oracle(c, max_len: int = 4) -> LatticeAssignment:
    """Per-pair transport check: the same assignment as `integralize`, verified
    by comparing, for each orbit representative c0 and nonidentity kernel word
    w of length <= min(max_len, 3), the Hermite form of H(w) B(c0) with the
    lattice stored at c0 w.  The oracle of `integralize`, whose docstring
    proves that every pair passes."""
    assignment = LatticeAssignment(c, tuple(enumerate_components(c.sig, max_len)))
    kernel = list(kernel_words(c.sig, min(max_len, 3)))
    for c0 in assignment.orbit_reps:
        base = assignment.lattice_of(c0)
        for w in kernel:
            moved = component_action(w, c0)
            if lattice_hermite(c.twist(w) * base.basis) != assignment.lattice_of(moved):
                raise TransportConflict(f"transported lattice disagrees at {moved}")
    return assignment


def det_valuation_conserved_oracle(assignment: LatticeAssignment, w: FPWord,
                                   c: ComponentIndex) -> bool:
    """Per-word oracle of `det_valuation_conserved`: v(det H(w)) by eliminating
    H(w) itself, False on a zero determinant."""
    dv = assignment.cocycle.twist(w).det().valuation()
    if dv == INFINITY:
        return False
    before = sum(assignment.lattice_of(c).diagonal_exponents)
    after = sum(assignment.lattice_of(component_action(w, c)).diagonal_exponents)
    return int(dv) == after - before


def finite_cover_transitive_oracle(cover: FiniteCover) -> bool:
    """Whether the actions carry the first fiber point to every other, by a
    search of the fiber.  The oracle of `build_finite_cover`, which proves
    transitivity from the groups' generators."""
    seen, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for y in {perm[x] for _, perm in cover.actions} - seen:
            seen.add(y)
            stack.append(y)
    return len(seen) == len(cover.fiber)


def coset_strip(sig: FPSignature, j: int, letters) -> tuple:
    """canon_j: the letters of s without a leading j-factor letter, the
    representative of the right coset G_j s that `ComponentIndex` stores."""
    if letters and letters[0][0] == sig.r + j:
        return tuple(letters[1:])
    return tuple(letters)


def enumerate_components_oracle(sig: FPSignature, max_len: int) -> list[ComponentIndex]:
    """One index per (normal form, factor) for which the form is canonical,
    built from the letters alone, so each computes its own alpha: the
    per-(word, j) comprehension that `enumerate_components` replaced by
    indices sharing the walk's letters and alpha."""
    r = sig.r
    return [ComponentIndex(j, sig, letters)
            for letters, _, _ in iter_words_raw(sig, max_len)
            for j in range(sig.num_factors)
            if not letters or letters[0][0] != r + j]


def domain_boundary_oracle(dom: FundamentalDomain,
                           presentation: Pi1Presentation | None = None) -> tuple:
    """The boundary of `dom` built eagerly: for every core component G_j s
    (in set order), node and element g of G_j, each lift u with one side
    G_j s is recorded when `lift_sides_oracle` puts its other side outside
    the core.  Those lifts are u = g s when the node's first end lies on
    curve component j and u = z^{-1} g s, with z the node's glue, when its
    second end does, both normalized by `fp_normalize`.  The records are
    sorted by node id, then u in shortlex.  The oracle of
    `FundamentalDomain.boundary`, which builds only the outside side of
    each lift, on its first read."""
    sig = dom.sig
    nodes = node_ends_oracle(sig, presentation)
    core = set(dom.core)
    boundary = []
    for c in core:
        for nid, ends in nodes.items():
            glue_inv = [(z, -1) for z, _ in ends[2]]
            for g in range(sig.factor(c.j).order):
                gs = [(sig.r + c.j, g)] + list(c.letters)
                for side, raw in ((0, gs), (1, glue_inv + gs)):
                    sides = lift_sides_oracle(sig, ends, raw)
                    if sides[side] == c and sides[1 - side] not in core:
                        boundary.append((nid, fp_normalize(sig, raw), c, sides[1 - side]))
    return tuple(sorted(boundary, key=lambda b: (b[0], shortlex_key(sig, b[1].letters))))


def cover_witness_oracle(dom: FundamentalDomain, target: ComponentIndex) -> FPWord:
    """Per-target coverage witness: t = (w sigma(g))^{-1} s for the target's
    representative s with quotient image g, checked to lie in the kernel by
    its own alpha and to carry the core component onto the target through the
    action code path.  The oracle of `cover_witness`, which rests both checks
    on how the domain derives each section entry from its kernel word."""
    sig = dom.sig
    s = target.letters
    if target.sig is not sig and target.sig != sig:
        raise SignatureMismatch("target over the wrong signature")
    j = target.j
    ws_inv = dom.section[_alpha_tuple(sig, s)]
    ws = _inv_letters(sig, ws_inv)
    t = _concat(sig, ws_inv, s)
    if _alpha_tuple(sig, t) != sig.identity_tuple():
        raise AssertionError("coverage witness fell outside the kernel")
    if coset_strip(sig, j, _concat(sig, coset_strip(sig, j, ws), t)) != s:
        raise AssertionError("coverage witness failed to act correctly")
    return FPWord(sig, t)


def section_entry_oracle(sig: FPSignature, g, j: int, ws_inv) -> str | None:
    """How the section entry ws^{-1} at g fails factor j's coverage
    witnesses, or None: alpha((ws^{-1})^{-1}) must be g, and c =
    canon_j(ws) ws^{-1}, with ws the inverse of the entry, must be empty or
    one G_j letter.  The per-(g, j) oracle of the entries a
    `FundamentalDomain` derives from its kernel word w: ws = w sigma(g) and
    alpha(w) is trivial, so the first condition holds, and the second holds
    for any letters once ws is their exact inverse."""
    ws = _inv_letters(sig, ws_inv)
    if _alpha_tuple(sig, ws) != g:
        return "coverage witness fell outside the kernel"
    c = _concat(sig, coset_strip(sig, j, ws), ws_inv)
    if not c or len(c) == 1 and c[0][0] == sig.r + j:
        return None
    return "coverage witness failed to act correctly"


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
    for s, al, _ in append_walk(sig, max_len):
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
                    raise AssertionError(
                        f"conjugate {g} of factor {j} lands in the kernel at s={s}")
                # the candidate must fix its component through the action code
                # path too; anything else is a reduction bug
                if coset_strip(sig, j, _concat(sig, s, w)) != s:
                    raise AssertionError(
                        f"stabilizer candidate failed to fix ({j},{s})")
                checks += 1
    witnesses = []
    for j in range(sig.num_factors):
        G = sig.factor(j)
        if G.order == 1:
            continue
        g = G.nonidentity()[0]
        w = FPWord(sig, ((r + j, g),))
        base = ComponentIndex(j, sig, ())
        if component_action(w, base) != base:
            raise AssertionError(
                "expected full-group witness failed: factor letter moved its base")
        witnesses.append(f"g{j + 1}:{G.labels[g]} fixes Y^{j + 1}_e")
    return FreenessReport(sig.describe(), "stabilizer-enumeration",
                          kernel_words, components, checks, tuple(witnesses), True)


class DenseHopf(HopfAlgebra):
    """Oracle for the Hopf axioms that `HopfAlgebra`'s docstring proves:
    every axiom instance checked by dense coordinate arithmetic mod 3 on
    m-tuples and coproduct tensors, where the library proves each axiom from
    one group law of the table.  The group
    may be raw data (`raw_group`) that no constructor checked."""

    def zero_vec(self):
        return (0,) * self.dim

    def unit(self):
        return (1,) * self.dim

    def add(self, v, w):
        return tuple((a + b) % F3.p for a, b in zip(v, w))

    def mult(self, v, w):
        return tuple(a * b % F3.p for a, b in zip(v, w))

    def counit(self, v):
        return v[self.group.identity]

    def tensor_mult(self, s, t):
        out = {}
        for (a, b), c1 in s.items():
            c2 = t.get((a, b))
            if c2:
                prod = c1 * c2 % F3.p
                if prod:
                    out[(a, b)] = prod
        return out

    def _comult_leg(self, t, leg: int, cops: list) -> dict:
        """(Delta (x) id) t for leg 0, (id (x) Delta) t for leg 1; cops[g] is Delta(e_g)."""
        out: dict = {}
        for (a, b), c in t.items():
            inner = cops[a if leg == 0 else b]
            for (x, y), d in inner.items():
                key = (x, y, b) if leg == 0 else (a, x, y)
                acc = (out.get(key, 0) + c * d) % F3.p
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return out

    def verify_axioms(self) -> dict:
        G = self.group
        checks = 0
        basis = [self.basis_vec(g) for g in range(self.dim)]
        cops = [self.comult(eg) for eg in basis]
        for g, (eg, dg) in enumerate(zip(basis, cops)):
            if self._comult_leg(dg, 0, cops) != self._comult_leg(dg, 1, cops):
                raise AssertionError(f"coassociativity fails at basis element {g}")
            left = self.zero_vec()
            right = self.zero_vec()
            for (h, k), c in dg.items():
                if h == G.identity:
                    left = self.add(left, tuple(c * x % F3.p for x in basis[k]))
                if k == G.identity:
                    right = self.add(right, tuple(c * x % F3.p for x in basis[h]))
            if left != eg or right != eg:
                raise AssertionError(f"counit law fails at basis element {g}")
            conv = self.zero_vec()
            for (h, k), c in dg.items():
                term = self.mult(self.antipode(basis[h]), basis[k])
                conv = self.add(conv, tuple(c * x % F3.p for x in term))
            target = tuple(self.counit(eg) * x % F3.p for x in self.unit())
            if conv != target:
                raise AssertionError(f"antipode convolution fails at {g}")
            checks += 3
        for g in range(self.dim):
            for h in range(self.dim):
                lhs = self.comult(self.mult(basis[g], basis[h]))
                rhs = self.tensor_mult(cops[g], cops[h])
                if lhs != rhs:
                    raise AssertionError(f"bialgebra compatibility fails at ({g},{h})")
                checks += 1
        # 1 = sum_g e_g, so its coproduct is the all-ones tensor, i.e. 1 (x) 1
        expected = {(h, k): 1 for h in range(self.dim) for k in range(self.dim)}
        if self.comult(self.unit()) != expected:
            raise AssertionError("coproduct of the unit is not the tensor unit")
        checks += 1
        return {"dimension": self.dim, "checks": checks}


def dense_tower_hull(tower) -> TowerReport:
    """Oracle for `tower_hull`: each dual map v -> v o f is checked on every
    basis vector to be multiplicative and to respect the coproduct, counit,
    antipode and unit, where building a `QuotientTower` checks that f is a
    surjective homomorphism.  `tower` needs only `groups` and `maps`, so raw
    data can be passed in a namespace."""
    algebras = [DenseHopf(G) for G in tower.groups]
    for A in algebras:
        A.verify_axioms()
    for i, m in enumerate(tower.maps):
        Adown, Aup = algebras[i], algebras[i + 1]
        down, up = tower.groups[i], tower.groups[i + 1]
        fibers = {g: [h for h in range(up.order) if m[h] == g] for g in range(down.order)}
        for g, fiber in fibers.items():
            if not fiber:
                raise AssertionError(
                    f"level {i}: element {down.labels[g]} has no preimage, "
                    "the transition map is not surjective")

        def dual(vec):
            return tuple(vec[m[h]] for h in range(up.order))

        for g in range(down.order):
            for h in range(down.order):
                lhs = dual(Adown.mult(Adown.basis_vec(g), Adown.basis_vec(h)))
                rhs = Aup.mult(dual(Adown.basis_vec(g)), dual(Adown.basis_vec(h)))
                if lhs != rhs:
                    raise AssertionError(f"dual map {i} is not multiplicative")
            src = Adown.basis_vec(g)
            lifted = dual(src)
            rhs_t = {}
            for (a, b), c in Adown.comult(src).items():
                for ha in fibers[a]:
                    for hb in fibers[b]:
                        acc = (rhs_t.get((ha, hb), 0) + c) % F3.p
                        if acc:
                            rhs_t[(ha, hb)] = acc
                        else:
                            rhs_t.pop((ha, hb), None)
            if Aup.comult(lifted) != rhs_t:
                raise AssertionError(f"dual map {i} does not respect the coproduct")
            if Aup.counit(lifted) != Adown.counit(src):
                raise AssertionError(f"dual map {i} does not respect the counit")
            if dual(Adown.antipode(src)) != Aup.antipode(lifted):
                raise AssertionError(f"dual map {i} does not respect the antipode")
        if dual(Adown.unit()) != Aup.unit():
            raise AssertionError(f"dual map {i} does not respect the unit")
    return TowerReport(tuple(G.order for G in tower.groups), True)
