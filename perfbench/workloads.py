"""The four seeded certificate workloads.

Each workload is a fixed catalogue of request cells (the shape of the input:
rank, signature, word bound) so that every seed asks for the same amount of
work.  The seed draws the concrete inputs inside each cell: matrix entries,
exponent placements, scalars, element labellings of the finite groups,
factor order, characters, and the order in which requests are sent.  The
library sees only the generated inputs.

A request has two halves: ``run`` makes the library calls that end in the
certificate verdict, and ``check`` compares that verdict with an answer the
benchmark knows independently (``oracle``).  ``check`` does no arithmetic
through the library, so it neither trusts the code under test nor adds to
its traced counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io as _stdio
import json
import random
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import oracle

LAYERS = ("field", "groups", "curves", "reps", "covering", "descent",
          "stratified", "specialize", "hopf", "io", "cli")


def import_library() -> SimpleNamespace:
    """Import nodalcover and return its layer modules by name."""
    return SimpleNamespace(**{name: importlib.import_module(f"nodalcover.{name}")
                              for name in LAYERS})


@dataclass
class Request:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, tuple]]


@dataclass
class Workload:
    requests: list[Request]
    inputs: list[str] = dc_field(default_factory=list)

    def fingerprint(self) -> str:
        """Digest of the generated inputs, to show that seeds differ."""
        return hashlib.sha256("\n".join(self.inputs).encode()).hexdigest()[:16]


def _finite_group(lib, G: oracle.GroupTable):
    return lib.groups.FiniteGroup.from_table(G.table, name=G.name, generators=G.generators)


def _presentation(lib, r: int):
    """Presentation of the one-component chain curve with r loops."""
    return lib.curves.pi1_presentation(lib.curves.chain_curve_for_signature(r, 1))


def _matrix(lib, F, rows):
    return lib.field.MatrixK(F, tuple(tuple(rows[i]) for i in range(len(rows))))


def _describe(M) -> str:
    return repr(M.to_strings())


# ---------------------------------------------------------------------------
# cocycle_laurent
# ---------------------------------------------------------------------------

# (r, L, rank, degree of the unipotent entries), one request each
LAURENT_CELLS = ((1, 4, 1, 1), (1, 4, 1, 1), (1, 4, 1, 1), (1, 4, 2, 1), (1, 4, 2, 1),
                 (1, 4, 3, 0), (1, 4, 3, 0), (2, 3, 1, 0), (2, 3, 1, 0))
LAURENT_EXPONENTS = {1: (1,), 2: (1, 0), 3: (1, 0, -1)}


def _laurent_z_image(lib, F, shape: random.Random, rng: random.Random, n: int, deg: int):
    """Monomial matrix times diag(t^e) times a unipotent matrix with entries
    of degree deg above the diagonal: the determinant is c*t^k, so every
    twist entry is a Laurent polynomial.  The shape (permutation, exponent
    placement, sign) comes from ``shape``; the seed draws the nonzero
    coefficients."""
    p = F.p
    zero, one = F.zero(), F.one()
    perm = list(range(n))
    shape.shuffle(perm)
    exps = list(LAURENT_EXPONENTS[n])
    shape.shuffle(exps)
    sign = shape.choice((1, -1))
    P = [[F.rf((rng.randrange(1, p),)) if perm[i] == j else zero for j in range(n)]
         for i in range(n)]
    D = [[F.t_power(sign * exps[i]) if i == j else zero for j in range(n)]
         for i in range(n)]
    U = [[one if i == j else
          (F.rf(tuple(rng.randrange(1, p) for _ in range(deg + 1))) if j == i + 1 else zero)
          for j in range(n)] for i in range(n)]
    return _matrix(lib, F, P) * _matrix(lib, F, D) * _matrix(lib, F, U)


def _involution(lib, F, shape: random.Random, rng: random.Random, n: int):
    """A matrix squaring to 1: +-1 in rank 1, else a scaled transposition."""
    zero, one = F.zero(), F.one()
    if n == 1:
        return _matrix(lib, F, [[rng.choice((one, -one))]])
    i, j = sorted(shape.sample(range(n), 2))
    c = F.rf((rng.randrange(1, F.p),))
    rows = [[one if a == b and a not in (i, j) else zero for b in range(n)] for a in range(n)]
    rows[i][j] = c
    rows[j][i] = c.inverse()
    return _matrix(lib, F, rows)


def _cocycle_request(lib, kind: str, rep, partner, L: int) -> Request:
    descent = lib.descent

    def run():
        datum = descent.datum_from_rep(rep)
        cert = descent.check_cocycle(datum, L)
        basis = descent.hom_cocycle(descent.datum_from_rep(partner), datum)
        return cert, len(basis)

    def check(out):
        cert, dim = out
        ok = (cert.passed and cert.identity_ok and cert.witness is None
              and cert.max_len == L and (dim >= 1 or partner is not rep))
        return ok, (kind, cert.passed)

    return Request(kind, run, check)


def _corrupted_request(lib, rep, sig, F) -> Request:
    descent = lib.descent
    word = lib.groups.FPWord(sig, ((0, 1),))
    bad_matrix = lib.field.MatrixK.from_rows(F, [["1", "1"], ["1", "0"]])

    def run():
        bad = descent.CorruptedCocycle(descent.datum_from_rep(rep), word, bad_matrix)
        return descent.check_cocycle(bad, 3)

    def check(cert):
        return (not cert.passed and cert.witness is not None), ("corrupted", cert.passed)

    return Request("corrupted control", run, check)


def _criterion6_reps(lib, F, pres, Z2):
    """The three fixed data of the acceptance suite's cocycle criterion."""
    M = lib.field.MatrixK
    build = lib.reps.ContinuousRep.build
    rep_a = build(pres, F, [M.from_rows(F, [["t", "1"], ["0", "1"]])],
                  (Z2,), ((M.identity(F, 2), M.from_rows(F, [["0", "1"], ["1", "0"]])),))
    rep_b = build(pres, F, [M.from_rows(F, [["t"]])],
                  (Z2,), ((M.identity(F, 1), M.from_rows(F, [["2"]])),))
    rep_c = build(pres, F, [M.from_rows(F, [["0", "1", "0"], ["0", "0", "1"], ["t", "0", "0"]])],
                  (Z2,), ((M.identity(F, 3),
                           M.from_rows(F, [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]])),))
    return rep_a, rep_b, rep_c


def cocycle_laurent(lib, shape: random.Random, rng: random.Random, root: Path) -> Workload:
    F = lib.field.FunctionField(3)
    Z2 = _finite_group(lib, oracle.cyclic(2))
    requests, inputs = [], []
    pres_by_r = {r: _presentation(lib, r) for r in (1, 2)}
    data = []  # (kind, rep, L, r) in catalogue order
    for r, L, n, deg in LAURENT_CELLS:
        z = [_laurent_z_image(lib, F, shape, rng, n, deg) for _ in range(r)]
        invol = _involution(lib, F, shape, rng, n)
        rep = lib.reps.ContinuousRep.build(
            pres_by_r[r], F, z, (Z2,), ((lib.field.MatrixK.identity(F, n), invol),))
        kind = f"laurent r={r} rank={n} L={L}"
        data.append((kind, rep, L, r))
        inputs.append(kind + " " + " ".join(_describe(m) for m in z + [invol]))
    sig1 = lib.groups.FPSignature(1, (Z2,))
    rep_a, rep_b, rep_c = _criterion6_reps(lib, F, pres_by_r[1], Z2)
    for name, rep in (("a", rep_a), ("b", rep_b), ("c", rep_c)):
        data.append((f"criterion-6 rep_{name} L=4", rep, 4, 1))
    # the hom partner is the previous datum over the same signature in
    # catalogue order, so a request's cost does not depend on the send order
    previous = {}
    for kind, rep, L, r in data:
        requests.append(_cocycle_request(lib, kind, rep, previous.get(r, rep), L))
        previous[r] = rep
    requests.append(_corrupted_request(lib, rep_a, sig1, F))
    rng.shuffle(requests)
    return Workload(requests, inputs + [r.kind for r in requests])


# ---------------------------------------------------------------------------
# words_free
# ---------------------------------------------------------------------------

# (r, factor groups, L): both freeness regimes at both word bounds
FREE_CELLS = (
    (1, ("Z2",), 5), (1, ("Z2",), 6), (1, ("Z3",), 5), (1, ("Z3",), 6), (1, ("Z4",), 5),
    (1, ("S3",), 5), (1, ("S3",), 6), (1, ("Z2", "Z2"), 5), (1, ("Z2", "Z3"), 5),
    (1, ("Z2", "Z3"), 6), (2, ("Z2",), 5), (2, ("Z2",), 6), (2, ("Z3",), 5),
    (2, ("Z4",), 5), (2, ("Z2", "Z2"), 5),
)
_BASE_GROUPS = {"Z2": lambda: oracle.cyclic(2), "Z3": lambda: oracle.cyclic(3),
                "Z4": lambda: oracle.cyclic(4), "S3": oracle.symmetric3}


def _free_request(lib, kind: str, r: int, tables, L: int) -> Request:
    groups_mod, covering = lib.groups, lib.covering
    sig = groups_mod.FPSignature(r, tuple(_finite_group(lib, G) for G in tables))
    counts = oracle.word_counts(r, tables, L)
    ident = tuple(G.identity for G in tables)
    nontrivial = sum(1 for G in tables if G.order > 1)
    core_size = len(tables) * (1 + r)
    for G in tables:
        core_size *= G.order

    def run():
        report = covering.certify_free_action(sig, L)
        dom = covering.fundamental_domain(sig, groups_mod.FPWord(sig, ((0, 1),)))
        targets = covering.enumerate_components(sig, L)
        witnesses = [covering.cover_witness(dom, t) for t in targets]
        return report, len(dom.core), len(targets), witnesses

    def check(out):
        report, core, ntargets, witnesses = out
        ok = (report.passed and report.kernel_words == counts.kernel
              and report.components == counts.components
              and len(report.full_group_witnesses) == nontrivial
              and core == core_size and ntargets == counts.components
              and all(oracle.alpha(r, tables, w.letters) == ident for w in witnesses))
        return ok, (kind, report.passed, report.kernel_words, report.components)

    return Request(kind, run, check)


def words_free(lib, shape: random.Random, rng: random.Random, root: Path) -> Workload:
    requests, inputs = [], []
    for r, names, L in FREE_CELLS:
        tables = []
        for name in names:
            G = _BASE_GROUPS[name]()
            perm = list(range(G.order))
            rng.shuffle(perm)
            tables.append(oracle.relabel(G, perm))
        rng.shuffle(tables)
        kind = f"free r={r} [{','.join(names)}] L={L}"
        requests.append(_free_request(lib, kind, r, tables, L))
        inputs.append(f"{r} {L} " + " ".join(repr(G.table) for G in tables))
    rng.shuffle(requests)
    return Workload(requests, inputs + [r.kind for r in requests])


# ---------------------------------------------------------------------------
# transport_general
# ---------------------------------------------------------------------------

# (r, rank of the rep, rank of the second rep for the tensor certificate)
TRANSPORT_CELLS = ((1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2)) * 5
TRANSPORT_LEN = 3


def _is_monomial(poly: tuple) -> bool:
    return sum(1 for c in poly if c) <= 1


def _random_gl(lib, F, shape: random.Random, rng: random.Random, n: int):
    """Entries a + b*t in the style of the acceptance suite's random data,
    an optional t-shift, and a determinant that is not c*t^k, so
    normalisation needs general gcds.  Which coefficients are present and
    the shift come from ``shape``; the seed draws their nonzero values."""
    while True:
        support = [[shape.choice(((0,), (1,), (0, 1), (0, 1))) for _ in range(n)]
                   for _ in range(n)]
        shift = shape.choice((-1, 0, 0, 1))
        for _ in range(50):
            rows = [[F.rf(tuple(rng.randrange(1, F.p) if k in terms else 0
                                for k in range(max(terms) + 1)))
                     for terms in row] for row in support]
            M = _matrix(lib, F, rows)
            det = M.det()
            if not det.is_zero() and not (_is_monomial(det.num) and _is_monomial(det.den)):
                return M.scale(F.t_power(shift)) if shift else M


def _involution_pool(lib, F, n: int):
    M = lib.field.MatrixK
    neg = str(F.p - 1)
    if n == 1:
        return [M.from_rows(F, [["1"]]), M.from_rows(F, [[neg]])]
    return [M.identity(F, 2), M.from_rows(F, [["0", "1"], ["1", "0"]]),
            M.from_rows(F, [[neg, "0"], ["0", neg]]), M.from_rows(F, [["1", "0"], ["0", neg]])]


def _transport_request(lib, kind, rep, rep2, kernel_words, counts) -> Request:
    descent, specialize = lib.descent, lib.specialize

    def run():
        datum = descent.datum_from_rep(rep)
        assignment = descent.integralize(datum.restricted(), max_len=TRANSPORT_LEN)
        conserved = [descent.det_valuation_conserved(assignment, w, c0)
                     for c0 in assignment.orbit_reps for w in kernel_words]
        cert = specialize.sp_tensor_certificate(rep, rep2)
        basis = descent.hom_cocycle(datum, descent.datum_from_rep(rep2))
        return assignment, conserved, cert, basis

    def check(out):
        assignment, conserved, cert, basis = out
        ok = (all(conserved) and len(conserved) == len(kernel_words)
              and len(assignment.orbit_reps) == 1
              and len(assignment.components) == counts.components
              and cert.passed
              and all((b.rows, b.cols) == (rep2.rank, rep.rank) for b in basis))
        return ok, (kind, all(conserved), cert.passed)

    return Request(kind, run, check)


def transport_general(lib, shape: random.Random, rng: random.Random, root: Path) -> Workload:
    F = lib.field.FunctionField(3)
    Z2t = oracle.cyclic(2)
    Z2 = _finite_group(lib, Z2t)
    build = lib.reps.ContinuousRep.build
    requests, inputs = [], []
    per_r = {}
    for r in (1, 2):
        words = oracle.kernel_words(r, [Z2t], TRANSPORT_LEN)
        counts = oracle.word_counts(r, [Z2t], TRANSPORT_LEN)
        if len(words) != counts.kernel:
            raise RuntimeError("kernel word recursion disagrees with the grade recurrence")
        sig = lib.groups.FPSignature(r, (Z2,))
        per_r[r] = (_presentation(lib, r), [lib.groups.FPWord(sig, w) for w in words], counts)
    for r, n, n2 in TRANSPORT_CELLS:
        pres, words, counts = per_r[r]
        reps = []
        for rank in (n, n2):
            z = [_random_gl(lib, F, shape, rng, rank) for _ in range(r)]
            invol = shape.choice(_involution_pool(lib, F, rank))
            reps.append(build(pres, F, z, (Z2,),
                              ((lib.field.MatrixK.identity(F, rank), invol),)))
            inputs.append(" ".join(_describe(m) for m in z + [invol]))
        kind = f"transport r={r} rank={n}x{n2} L={TRANSPORT_LEN}"
        requests.append(_transport_request(lib, kind, reps[0], reps[1], words, counts))
    rng.shuffle(requests)
    return Workload(requests, inputs + [r.kind for r in requests])


# ---------------------------------------------------------------------------
# square_cli
# ---------------------------------------------------------------------------

SQUARE_LEN = 6
SQUARE_CELLS = tuple((r, n) for r in (1, 2) for n in (2, 3, 4))
PRIMES_1_MOD = {2: (3, 5, 7), 3: (7, 13), 4: (5, 13)}
DEMO_FILES = ("nodal_cubic.json", "cycle3.json", "z2_sign.json", "s3_2dim.json",
              "z2.json", "z4.json", "z8.json")


def _primitive_root_of_unity(rng: random.Random, p: int, n: int) -> int:
    roots = [x for x in range(1, p)
             if pow(x, n, p) == 1 and all(pow(x, d, p) != 1 for d in range(1, n))]
    return rng.choice(roots)


def _square_request(lib, kind, fq, pres, words: int, order: int, p: int) -> Request:
    specialize, stratified, reps = lib.specialize, lib.stratified, lib.reps

    def run():
        cert = specialize.commuting_square_check(fq, pres, max_len=SQUARE_LEN)
        d = stratified.fdiv_from_rep(reps.inflate(fq, pres), stratified.K_RELATIVE)
        hb = stratified.hom_fdiv(d, d)
        return cert, hb

    def check(out):
        cert, hb = out
        ok = (cert.passed and cert.words_checked == words
              and cert.elements_compared == order
              and hb.dimension == 1 and hb.scalar_field == f"F_{p}")
        return ok, (kind, cert.passed, cert.words_checked, hb.dimension)

    return Request(kind, run, check)


def _cli_request(lib, args: list[str], expect: Callable[[dict], bool]) -> Request:
    cli = lib.cli
    kind = "cli " + " ".join(Path(a).name if a.endswith(".json") else a for a in args)

    def run():
        buf = _stdio.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--format", "json", *args])
        return code, buf.getvalue()

    def check(out):
        code, text = out
        try:
            report = json.loads(text.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return False, (kind, code, None)
        # only exit codes and hand-checked fields count: report bytes may change
        return code == 0 and expect(report), (kind, code, report.get("ok"))

    return Request(kind, run, check)


def square_cli(lib, shape: random.Random, rng: random.Random, root: Path) -> Workload:
    data = root / "demos" / "data"
    paths = {name: str(data / name) for name in DEMO_FILES}
    # spec parsing belongs to set-up: the CLI files must load before any request
    curves = {name: lib.io.load_curve(paths[name]) for name in ("nodal_cubic.json", "cycle3.json")}
    lib.io.load_fq(paths["z2_sign.json"], curves["cycle3.json"])
    lib.io.load_fq(paths["s3_2dim.json"], curves["nodal_cubic.json"])
    for name in ("z2.json", "z4.json", "z8.json"):
        lib.io.load_group(paths[name])

    M = lib.field.MatrixK
    requests, inputs = [], []
    for r, n in SQUARE_CELLS:
        p = rng.choice(PRIMES_1_MOD[n])
        F = lib.field.FunctionField(p)
        Zt = oracle.cyclic(n)
        Zn = _finite_group(lib, Zt)
        omega = _primitive_root_of_unity(rng, p, n)
        hom = tuple(M.from_rows(F, [[str(pow(omega, k, p))]]) for k in range(n))
        z_to = [shape.randrange(n) for _ in range(r)]  # which loops act decides the cost
        if all(x == 0 for x in z_to):
            z_to[0] = 1  # keep some loop acting nontrivially
        pres = _presentation(lib, r)
        fq = lib.reps.FiniteQuotientRep.build(pres, F, (Zn,), Zn, z_to, [tuple(range(n))], hom)
        kind = f"square r={r} Z{n} L={SQUARE_LEN}"
        words = oracle.word_counts(r, [Zt], SQUARE_LEN).words
        requests.append(_square_request(lib, kind, fq, pres, words, n, p))
        inputs.append(f"{kind} p={p} omega={omega} z_to={z_to}")

    S3t = oracle.symmetric3()
    S3 = _finite_group(lib, S3t)
    F7 = lib.field.FunctionField(7)
    pres1 = _presentation(lib, 1)
    hom = lib.reps.hom_from_generator_images(
        F7, S3, [M.from_rows(F7, [["0", "1"], ["1", "0"]]),
                 M.from_rows(F7, [["0", "6"], ["1", "6"]])], 2)
    fq3 = lib.reps.FiniteQuotientRep.build(pres1, F7, (S3,), S3, [S3t.generators[1]],
                                           [tuple(range(S3t.order))], hom)
    requests.append(_square_request(lib, f"square r=1 S3 2-dim L={SQUARE_LEN}", fq3, pres1,
                                    oracle.word_counts(1, [S3t], SQUARE_LEN).words, 6, 7))

    trivial = oracle.GroupTable("1", ((0,),), (0,), 0)
    z2_words = oracle.word_counts(1, [oracle.cyclic(2), trivial, trivial], SQUARE_LEN).words
    s3_words = oracle.word_counts(1, [S3t], SQUARE_LEN).words
    cli_cases = (
        (["pi1", paths["nodal_cubic.json"]], lambda rep: rep["rank_r"] == 1),
        (["pi1", paths["cycle3.json"]], lambda rep: rep["rank_r"] == 1 and rep["betti"] == 1),
        (["square", paths["z2_sign.json"], paths["cycle3.json"]],
         lambda rep: rep["result"] == "PASS" and rep["words_checked"] == z2_words),
        (["square", paths["s3_2dim.json"], paths["nodal_cubic.json"]],
         lambda rep: rep["result"] == "PASS" and rep["words_checked"] == s3_words),
        (["hull", paths["z2.json"]], lambda rep: rep["dimension"] == 2),
        (["hull", "--tower", paths["z2.json"], paths["z4.json"], paths["z8.json"]],
         lambda rep: rep["dimensions"] == [2, 4, 8] and rep["duals_injective"]),
    )
    for args, expect in cli_cases:
        requests.append(_cli_request(lib, args, expect))
    rng.shuffle(requests)
    return Workload(requests, inputs + [r.kind for r in requests])


# Time of one pass over a workload's requests on the reference machine
# (2 vCPU Intel Xeon at 2.1 GHz, Python 3.11).  A run sends
# round(seconds / pass time) whole passes, so every run of a workload, on
# any commit, does the same work.
NOMINAL_PASS_S = {
    "cocycle_laurent": 3.5,
    "words_free": 4.0,
    "transport_general": 1.85,
    "square_cli": 1.4,
}

WORKLOADS = {
    "cocycle_laurent": cocycle_laurent,
    "words_free": words_free,
    "transport_general": transport_general,
    "square_cli": square_cli,
}


def build(name: str, lib, seed: int, root: Path) -> Workload:
    """Generate a workload's requests.  The shape stream is the same for
    every seed and fixes the cost-determining structure of each cell; the
    seeded stream draws everything else."""
    return WORKLOADS[name](lib, random.Random(f"{name}:shape"),
                           random.Random(f"{name}:{seed}"), root)
