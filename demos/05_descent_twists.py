"""Constant-coefficient descent twists and their integral models.

A representation turns every deck word u into a gluing matrix H(u) = rho(u)^{-1};
the inversion makes the family satisfy H(v) H(u) = H(u v), which is the cocycle
law once pullback is trivial on constants.  Transporting one standard lattice
along the free kernel action produces an integral model of the same datum.

Run:  python demos/05_descent_twists.py
"""

from nodalcover import (
    FunctionField,
    MatrixK,
    canonical_component,
    check_cocycle,
    datum_from_rep,
    det_valuation_conserved,
    integralize,
)
from nodalcover.curves import chain_curve_for_signature, pi1_presentation
from nodalcover.groups import cyclic_group, fp_normalize, kernel_words
from nodalcover.reps import ContinuousRep

F = FunctionField(3)
Z2 = cyclic_group(2)
pres = pi1_presentation(chain_curve_for_signature(1, 1))
rep = ContinuousRep.build(
    pres, F,
    z_images=[MatrixK.from_rows(F, [["(1)/(t)", "1"], ["0", "1"]])],
    factor_groups=(Z2,),
    factor_homs=((MatrixK.identity(F, 2),
                  MatrixK.from_rows(F, [["0", "1"], ["1", "0"]])),))
sig = rep.sig

datum = datum_from_rep(rep)
print("== the twist on a few deck words ==")
for letters in ([(0, 1)], [(0, -1)], [(0, 1), (1, 1)]):
    w = fp_normalize(sig, letters)
    print(f"H({w}) = {datum.twist(w).to_strings()}")

cert = check_cocycle(datum, max_len=4)
print(f"\ncocycle law certified from the {cert.strategy} (relations and letter "
      f"recurrence): {cert.pairs_checked} checks, passed={cert.passed}")

print("\n== integral model by lattice transport ==")
assignment = integralize(datum.restricted(), max_len=3)
print(f"{len(assignment.orbit_reps)} component orbit(s), "
      f"{len(assignment.components)} components in range")
for k in range(-2, 3):
    c = canonical_component(sig, 0, fp_normalize(sig, [(0, k)]))
    exps = assignment.lattice_of(c).diagonal_exponents
    print(f"  lattice at z1^{k:+d}: diagonal exponents {exps}")

print("\ndeterminant valuations are conserved along the transport:")
kernel = list(kernel_words(sig, 3))
ok = all(det_valuation_conserved(assignment, w, c)
         for w in kernel for c in assignment.orbit_reps)
print(f"  {len(kernel)} kernel words x {len(assignment.orbit_reps)} orbits: {ok}")

print("\nintegral twists (basis-changed gluing matrices) are unimodular:")
w = kernel[0]
c = assignment.orbit_reps[0]
k_mat = assignment.integral_twist(w, c)
print(f"  k_[{w}] at {c} = {k_mat.to_strings()}")
