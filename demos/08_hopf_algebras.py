"""Function Hopf algebras of finite groups and towers of quotients.

Run:  python demos/08_hopf_algebras.py
"""

from nodalcover.groups import cyclic_group, symmetric_group
from nodalcover.hopf import QuotientTower, function_hopf, tower_hull

Z2 = cyclic_group(2)
S3 = symmetric_group(3)

print("== the function algebra on the two-element group ==")
H = function_hopf(Z2)
print(f"dimension {H.dim}")
print(f"coproduct of e_0: {H.comult(H.basis_vec(0))}")
print(f"coproduct of e_1: {H.comult(H.basis_vec(1))}")
A = function_hopf(S3)
g = S3.label_index("120")  # a 3-cycle, so S(e_g) = e_{g^-1} is another basis vector
print(f"antipode on S3: S(e_120) = {A.antipode(A.basis_vec(g))}, "
      f"e_{S3.labels[S3.inverse[g]]} = {A.basis_vec(S3.inverse[g])}")

print("\n== cocommutative exactly when abelian ==")
for G in (Z2, cyclic_group(4), S3):
    A = function_hopf(G)
    print(f"  {G.name}: cocommutative={A.is_cocommutative()}, abelian={G.is_abelian()}")

print("\n== a tower of quotients and its dual chain ==")
tower = QuotientTower(
    [cyclic_group(2), cyclic_group(4), cyclic_group(8)],
    [[x % 2 for x in range(4)], [x % 4 for x in range(8)]])
report = tower_hull(tower)
print(f"  dimensions {report.dimensions}, duals injective: {report.injective}")
