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
from .errors import SquareViolation, TransportConflict
from .field import MatrixK
from .groups import first_kernel_word
from .reps import ContinuousRep, FiniteQuotientRep, inflate
from .stratified import FDividedDatum, S_RELATIVE, fdiv_from_rep

LATTICE_LEN = 3  # integral transport lists the components up to this length


@dataclass(frozen=True)
class Certificate:
    name: str
    passed: bool
    bound: int | None
    detail: str


@dataclass(frozen=True)
class SpecializationResult:
    fdiv: FDividedDatum
    finite_cover: FiniteCover
    domain: FundamentalDomain | None
    lattice: LatticeAssignment | None
    certificates: tuple[Certificate, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)


def sp_pipeline(rep: ContinuousRep, max_len: int = 4) -> SpecializationResult:
    """Run a representation through cover, freeness, domain, twist datum,
    divided sequence, and integral transport, bundling every certificate."""
    sig = rep.sig
    certs: list[Certificate] = []

    cover = build_finite_cover(rep)
    certs.append(Certificate(
        "finite-cover", True, None,
        f"fiber {len(cover.fiber)}, deck group order {len(cover.fiber)}"))

    free = certify_free_action(sig, max(2, max_len))
    certs.append(Certificate(
        "freeness", free.passed, free.max_len,
        f"{free.strategy}: {free.checks} checks, "
        f"{free.kernel_words} kernel words, {free.components} components"))

    domain = None
    w = first_kernel_word(sig)
    if w is None:
        certs.append(Certificate(
            "fundamental-domain", True, None,
            "deck group over the finite cover is trivial; the whole cover is its own domain"))
    else:
        domain = fundamental_domain(sig, w, rep.presentation)
        certs.append(Certificate(
            "fundamental-domain", True, None,
            f"core size {len(domain.core)}, {len(domain.section)} section entries"))

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
        lattice = integralize(datum.restricted(), max_len=LATTICE_LEN)
        certs.append(Certificate(
            "integral-model", True, LATTICE_LEN,
            f"{len(lattice.orbit_reps)} orbits, {len(lattice.components)} components"))
    except TransportConflict as exc:
        certs.append(Certificate("integral-model", False, LATTICE_LEN, str(exc)))

    return SpecializationResult(fdiv, cover, domain, lattice, tuple(certs))


def sp_tensor_certificate(r1: ContinuousRep, r2: ContinuousRep) -> Certificate:
    """Generator-level functoriality: the tensor datum's twists are the
    Kronecker products of the factors' twists, compared on the Z letters and
    proved on the factor letters (`tensor_fdiv`)."""
    from .stratified import tensor_fdiv

    _, cert = tensor_fdiv(fdiv_from_rep(r1), fdiv_from_rep(r2))
    return Certificate("tensor-functoriality", cert.passed, None,
                       f"{cert.generators_checked} generators compared")


def F_pipeline(fq: FiniteQuotientRep) -> FiniteCocycle:
    """Finite-quotient route: the quotient's twist data H(g) = rho(g^-1),
    built directly as a constant divided sequence.  Its law H(gh) = H(h) H(g)
    restates rho's, since (gh)^-1 = h^-1 g^-1, and building fq proved that."""
    G = fq.group
    return FiniteCocycle(G, fq.field, fq.rank,
                         tuple(fq.hom[G.inverse[g]] for g in range(G.order)))


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
    collapses it back through the quotient: every normal form up to max_len
    must act through its quotient image alone.  Kernel words act trivially
    because the identity's fiber is seeded with the identity matrix of the
    empty word.  The collapse walks (last letter, quotient image) states, so
    its matrix work is one product per (quotient element, letter) edge at any
    max_len, while `words_checked`, the number of normal forms covered, grows
    exponentially.

    Route two is `F_pipeline`, the quotient twist data read directly,
    H(g) = rho(g^-1).  The collapse is compared elementwise; the identity
    matrix witnesses the identification.

    The group law is checked once per input: `FiniteQuotientRep.build`
    checked rho's law when fq was loaded, and `descend_inflation` checks the
    collapse's.  `inflate`, `F_pipeline` and the comparison re-check nothing.
    """
    fin_sp = descend_inflation(datum_from_rep(inflate(fq, pres)), fq, max_len)
    direct = F_pipeline(fq).mats
    G = fq.group
    for g in range(G.order):
        if fin_sp.mats[g] != direct[g]:
            raise SquareViolation(
                f"routes disagree at quotient element {G.labels[g]}",
                witness=G.labels[g])
    return SquareCertificate(
        True, max_len, fin_sp.words_checked, G.order,
        MatrixK.identity(fq.field, fq.rank),
        f"collapsed datum equals the direct finite data on {G.name}")
