"""The specialization pipeline, its finite-quotient sibling, and the square.

sp takes a representation through the whole machine: finite cover, freeness
certificate, fundamental domain, twist datum, constant divided sequence,
integral models.  F builds the finite twist data of a quotient rep directly.
The two routes are compared after collapsing the inflated datum to the
quotient; in this constant-coefficient model the comparison is elementwise
equality and the natural-transformation witness is the identity matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covering import (
    FiniteCover,
    FundamentalDomain,
    build_finite_cover,
    certify_free_action,
    cover_witness,
    enumerate_components,
    fundamental_domain,
)
from .curves import Pi1Presentation
from .descent import (
    FiniteCocycle,
    LatticeAssignment,
    check_cocycle,
    datum_from_rep,
    descend_inflation,
    integralize,
)
from .errors import NodalCoverError, SquareViolation, TransportConflict
from .field import MatrixK
from .groups import kernel_words
from .reps import ContinuousRep, FiniteQuotientRep, inflate
from .stratified import FDividedDatum, S_RELATIVE, fdiv_from_rep


@dataclass(frozen=True)
class Certificate:
    name: str
    passed: bool
    bound: int | None
    detail: str


@dataclass(frozen=True)
class SpecializationResult:
    fdiv: FDividedDatum | None
    finite_cover: FiniteCover | None
    finite_cocycle: FiniteCocycle | None
    domain: FundamentalDomain | None
    lattice: LatticeAssignment | None
    certificates: tuple[Certificate, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)

    def certificate(self, name: str) -> Certificate:
        for c in self.certificates:
            if c.name == name:
                return c
        raise KeyError(name)


def sp_pipeline(rep: ContinuousRep, max_len: int = 4,
                lattice_len: int = 3) -> SpecializationResult:
    """Run a representation through cover, freeness, domain, twist datum,
    divided sequence, and integral transport, bundling every certificate."""
    sig = rep.sig
    certs: list[Certificate] = []

    cover = build_finite_cover(rep)
    certs.append(Certificate(
        "finite-cover", cover.transitive, None,
        f"fiber {len(cover.fiber)}, deck group order {cover.deck_order}"))

    free = certify_free_action(sig, max(2, max_len))
    certs.append(Certificate(
        "freeness", free.passed, free.max_len,
        f"{free.strategy}: {free.checks} checks, "
        f"{free.kernel_words} kernel words, {free.components} components"))

    domain = None
    w = next(kernel_words(sig, max_len), None)
    if w is None:
        certs.append(Certificate(
            "fundamental-domain", True, max_len,
            "deck group over the finite cover is trivial; the whole cover is its own domain"))
    else:
        domain = fundamental_domain(sig, w, rep.presentation)
        failures = 0
        targets = enumerate_components(sig, min(max_len, 3))
        for target in targets:
            try:
                cover_witness(domain, target)
            except NodalCoverError:
                failures += 1
        certs.append(Certificate(
            "fundamental-domain", failures == 0, min(max_len, 3),
            f"core size {len(domain.core)}, {len(targets)} coverage witnesses"))

    datum = datum_from_rep(rep)
    ccert = check_cocycle(datum, min(max_len, 4))
    certs.append(Certificate(
        "cocycle", ccert.passed, ccert.max_len,
        f"{ccert.strategy}: {ccert.pairs_checked} pairs"))

    fdiv = fdiv_from_rep(rep, S_RELATIVE)
    certs.append(Certificate(
        "divided-sequence", fdiv.layer(0) is fdiv.layer(1), None,
        "constant layers"))

    lattice = None
    try:
        lattice = integralize(datum.restricted(), max_len=lattice_len)
        certs.append(Certificate(
            "integral-model", True, lattice_len,
            f"{len(lattice.orbit_reps)} orbits, {len(lattice.components)} components"))
    except TransportConflict as exc:
        certs.append(Certificate("integral-model", False, lattice_len, str(exc)))

    return SpecializationResult(fdiv, cover, None, domain, lattice, tuple(certs))


def sp_tensor_certificate(r1: ContinuousRep, r2: ContinuousRep) -> Certificate:
    """Generator-level functoriality: the tensor datum's twists are the
    Kronecker products of the factors' twists."""
    from .stratified import tensor_fdiv

    d1 = fdiv_from_rep(r1)
    d2 = fdiv_from_rep(r2)
    _, cert = tensor_fdiv(d1, d2)
    return Certificate("tensor-functoriality", cert.passed, None,
                       f"{cert.generators_checked} generators compared")


def F_pipeline(fq: FiniteQuotientRep) -> SpecializationResult:
    """Finite-quotient route: the quotient's twist data built directly, as a
    constant divided sequence."""
    G = fq.group
    mats = tuple(fq.hom[G.inverse[g]] for g in range(G.order))
    fin = FiniteCocycle(G, fq.field, fq.rank, mats)
    certs = [Certificate("finite-cocycle-law", fin.check_law(), None,
                         f"group {G.name}, rank {fq.rank}")]
    return SpecializationResult(None, None, fin, None, None, tuple(certs))


@dataclass(frozen=True)
class SquareCertificate:
    passed: bool
    max_len: int
    words_checked: int
    elements_compared: int
    witness: MatrixK
    detail: str


def commuting_square_check(fq: FiniteQuotientRep, pres: Pi1Presentation,
                           max_len: int = 6) -> SquareCertificate:
    """Both routes to the finite twist data coincide.

    Route one inflates the quotient rep, builds the word-indexed datum, and
    collapses it back through the quotient (enumerated words must act through
    their quotient image alone, with kernel words acting trivially).  Route
    two builds the quotient twist data directly.  The collapse is compared
    elementwise; the identity matrix witnesses the identification.
    """
    rep = inflate(fq, pres)
    datum = datum_from_rep(rep)
    fin_sp = descend_inflation(datum, fq, max_len)
    fin_f = F_pipeline(fq).finite_cocycle
    G = fq.group
    for g in range(G.order):
        if fin_sp.mats[g] != fin_f.mats[g]:
            raise SquareViolation(
                f"routes disagree at quotient element {G.labels[g]}",
                witness=G.labels[g])
    return SquareCertificate(
        True, max_len, fin_sp.words_checked, G.order,
        MatrixK.identity(fq.field, fq.rank),
        f"collapsed datum equals the direct finite data on {G.name}")
