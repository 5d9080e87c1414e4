"""Tour of the coefficient field: F_p(t), valuations, Frobenius, lattices.

Run:  python demos/01_exact_arithmetic.py
"""

from nodalcover.field import FunctionField, MatrixK, lattice_hermite, solve_linear

F = FunctionField(3)
t = F.t_power(1)
one = F.one()

print("== exact rational functions over F_3(t) ==")
f = (F.t_power(2) - one) / (t - one)
print(f"(t^2 - 1)/(t - 1) canonicalizes to: {f}")
g = t / (t + one) + one / (t + one)
print(f"t/(t+1) + 1/(t+1) = {g}")

print("\n== t-adic valuations ==")
for h in (F.t_power(3) / (one + t), one / t, F.zero()):
    print(f"v({h}) = {h.valuation()}")

print("\n== Frobenius ==")
print(f"frobenius(t + 2) = {(t + F.rf(2)).frobenius()}")
x = (F.t_power(2) + one) / t
print(f"({x})^3 = {x.frobenius()},  cube root back: {x.frobenius().pth_root()}")

print("\n== linear solving ==")
M = MatrixK.from_rows(F, [["t", "1"], ["1", "t"]])
b = MatrixK.from_rows(F, [["1"], ["0"]])
sol = solve_linear(M, b)
print(f"M x = b solved: x = {sol.particular.to_strings()}")
print(f"residual check M x == b: {M * sol.particular == b}")

print("\n== lattice normal forms over the valuation ring ==")
B = MatrixK.from_rows(F, [["t^2", "t + 1"], ["0", "(1)/(t)"]])
L = lattice_hermite(B)
print(f"basis {B.to_strings()}")
print(f"canonical form {L.basis.to_strings()}")
print(f"diagonal exponents: {L.diagonal_exponents}")
U = MatrixK.from_rows(F, [["1", "t^2"], ["0", "2"]])  # invertible over the ring
print(f"same lattice after a unimodular change: {lattice_hermite(B * U) == L}")
