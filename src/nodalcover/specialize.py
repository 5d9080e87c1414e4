"""The specialization pipeline, its finite-quotient sibling, and the square.

sp takes a representation through the whole machine: fundamental domain,
twist datum, constant divided sequence, integral models.  F builds the
finite twist data of a quotient rep directly.  The two routes are compared
after collapsing the inflated datum to the quotient; in this
constant-coefficient model the comparison is elementwise equality, so the
natural transformation between them is the identity.  The two results are
`typing.NamedTuple` records.
"""

from __future__ import annotations

from typing import NamedTuple

from .covering import FundamentalDomain, fundamental_domain
from .curves import Pi1Presentation
from .descent import (
    COCYCLE_LEN,
    LATTICE_LEN,
    CocycleCertificate,
    FiniteCocycle,
    LatticeAssignment,
    check_cocycle,
    datum_from_rep,
    descend_inflation,
    integralize,
)
from .errors import SquareViolation
from .groups import first_kernel_word
from .reps import ContinuousRep, FiniteQuotientRep, inflate
from .stratified import FDividedDatum, S_RELATIVE, TensorCertificate, fdiv_from_rep, tensor_fdiv


class SpecializationResult(NamedTuple):
    """What `sp_pipeline` computed.  `domain` is None when ker alpha is
    trivial: the whole cover is then its own domain."""

    fdiv: FDividedDatum
    domain: FundamentalDomain | None
    cocycle: CocycleCertificate
    lattice: LatticeAssignment


def sp_pipeline(rep: ContinuousRep, max_len: int = COCYCLE_LEN) -> SpecializationResult:
    """Run a representation through domain, twist datum, divided sequence and
    integral transport.

    Only the cocycle certificate is a check that can fail.  The rest holds by
    construction: the deck action is free (`certify_free_action`), a domain
    is built from a kernel word alone (`FundamentalDomain`), the divided
    sequence is constant, and the transported lattices agree at every kernel
    word (`integralize`).
    """
    sig = rep.sig
    w = first_kernel_word(sig)
    domain = None if w is None else fundamental_domain(sig, w, rep.presentation)
    datum = datum_from_rep(rep)
    cocycle = check_cocycle(datum, min(max_len, COCYCLE_LEN))
    lattice = integralize(datum.restricted(), max_len=min(max_len, LATTICE_LEN))
    return SpecializationResult(FDividedDatum(datum, S_RELATIVE), domain, cocycle, lattice)


def sp_tensor_certificate(r1: ContinuousRep, r2: ContinuousRep) -> TensorCertificate:
    """Generator-level functoriality: the tensor datum's twists are the
    Kronecker products of the factors' twists, compared on the Z letters and
    proved on the factor letters (`tensor_fdiv`)."""
    return tensor_fdiv(fdiv_from_rep(r1), fdiv_from_rep(r2))[1]


def F_pipeline(fq: FiniteQuotientRep) -> FiniteCocycle:
    """Finite-quotient route: the quotient's twist data H(g) = rho(g^-1),
    built directly as a constant divided sequence.  Its law H(gh) = H(h) H(g)
    restates rho's, since (gh)^-1 = h^-1 g^-1, and building fq proved that."""
    G = fq.group
    return FiniteCocycle(G, tuple(fq.hom[G.inverse[g]] for g in range(G.order)))


class SquareCertificate(NamedTuple):
    passed: bool
    words_checked: int
    elements_compared: int


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
    H(g) = rho(g^-1).  The collapse is compared elementwise, so the routes
    are identified by the identity; a disagreement raises `SquareViolation`.

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
    return SquareCertificate(True, fin_sp.words_checked, G.order)
