"""The whole pipeline, and both routes to the finite twist data.

A representation runs through domain, twist datum, divided sequence, and
integral transport; only the cocycle law is a check that can fail.  A
finite-quotient rep can also take the short route, building its twist data
directly; collapsing the long route back to the quotient must land on the
same matrices, elementwise.

Run:  python demos/07_specialization_square.py
"""

from nodalcover import FunctionField, MatrixK, commuting_square_check, sp_pipeline
from nodalcover.curves import chain_curve_for_signature, pi1_presentation
from nodalcover.groups import cyclic_group, symmetric_group
from nodalcover.reps import ContinuousRep, FiniteQuotientRep, hom_from_generator_images
from nodalcover.specialize import F_pipeline, sp_tensor_certificate

F3 = FunctionField(3)
Z2 = cyclic_group(2)
pres = pi1_presentation(chain_curve_for_signature(1, 1))

print("== sp pipeline on a rank-one representation ==")
rep = ContinuousRep.build(
    pres, F3, [MatrixK.from_rows(F3, [["t"]])], (Z2,),
    ((MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])),))
result = sp_pipeline(rep)
print(f"  fundamental domain: core size {len(result.domain.core)}, "
      f"{len(result.domain.section)} section entries")
print(f"  [{'ok' if result.cocycle.passed else 'FAIL'}] cocycle: "
      f"{result.cocycle.pairs_checked} pairs compared")
print(f"  integral model: {len(result.lattice.orbit_reps)} orbits, "
      f"{len(result.lattice.components)} components")

print("\n== tensor functoriality certificate ==")
print(f"  {sp_tensor_certificate(rep, rep).generators_checked} generators compared")

print("\n== the square for the sign character ==")
fq = FiniteQuotientRep.build(
    pres, F3, (Z2,), Z2, [1], [(0, 1)],
    (MatrixK.identity(F3, 1), MatrixK.from_rows(F3, [["2"]])))
direct = F_pipeline(fq)
print(f"direct finite data: {[m.to_strings() for m in direct.mats]}")
cert = commuting_square_check(fq, pres, max_len=6)
print(f"square: the routes agree on {cert.elements_compared} elements, "
      f"covering {cert.words_checked} normal forms")

print("\n== the square for a nonabelian quotient ==")
F7 = FunctionField(7)
S3 = symmetric_group(3)
pres3 = pi1_presentation(chain_curve_for_signature(1, 1))
hom = hom_from_generator_images(
    F7, S3,
    [MatrixK.from_rows(F7, [["0", "1"], ["1", "0"]]),
     MatrixK.from_rows(F7, [["0", "6"], ["1", "6"]])], 2)
fq3 = FiniteQuotientRep.build(pres3, F7, (S3,), S3, [S3.generators[1]],
                              [tuple(range(6))], hom)
cert3 = commuting_square_check(fq3, pres3, max_len=5)
print(f"rank-two data over F_7(t): the routes agree on {cert3.elements_compared} "
      f"elements, covering {cert3.words_checked} normal forms")
