"""Frobenius-divided data: constant sequences and their two transport modes.

Over the base ring the relative Frobenius fixes coefficients, so the sequence
attached to a representation is literally constant.  Morphism chains see the
difference: base-relative chains are plain twisted morphisms over K, while
field-relative chains force entries into the prime field (the perfection
intersection of K).

Run:  python demos/06_divided_sequences.py
"""

from nodalcover import FunctionField, MatrixK, fdiv_from_rep, hom_fdiv
from nodalcover.curves import chain_curve_for_signature, pi1_presentation
from nodalcover.groups import cyclic_group
from nodalcover.reps import ContinuousRep, trivial_rep
from nodalcover.stratified import K_RELATIVE, S_RELATIVE

F = FunctionField(3)
Z2 = cyclic_group(2)
pres = pi1_presentation(chain_curve_for_signature(1, 1))

print("== transport modes ==")
M = MatrixK.from_rows(F, [["t", "1"], ["0", "2"]])
print(f"base-relative transport keeps M = {M.to_strings()}")
print(f"field-relative transport cubes entries: {M.frobenius().to_strings()}")

unit = trivial_rep(pres, F, (Z2,))
print("\n== endomorphisms of the unit ==")
s_end = hom_fdiv(fdiv_from_rep(unit, S_RELATIVE), fdiv_from_rep(unit, S_RELATIVE))
print(f"base-relative: dimension {s_end.dimension} over {s_end.scalar_field}")
k_end = hom_fdiv(fdiv_from_rep(unit, K_RELATIVE), fdiv_from_rep(unit, K_RELATIVE))
print(f"field-relative: dimension {k_end.dimension} over {k_end.scalar_field}")

print("\n== a rank-two example ==")
rep = ContinuousRep.build(
    pres, F,
    z_images=[MatrixK.from_rows(F, [["t", "1"], ["0", "1"]])],
    factor_groups=(Z2,),
    factor_homs=((MatrixK.identity(F, 2),
                  MatrixK.from_rows(F, [["0", "1"], ["1", "0"]])),))
d = fdiv_from_rep(rep, K_RELATIVE)
hb = hom_fdiv(d, d)
print(f"field-relative End: dimension {hb.dimension} over {hb.scalar_field}")
for f in hb.basis:
    print(f"  fixed endomorphism {f.to_strings()}")
