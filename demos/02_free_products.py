"""Normal forms in Z^{*r} * G_1 * ... * G_N and the quotient onto the product.

Run:  python demos/02_free_products.py
"""

from nodalcover.groups import (
    FPSignature,
    FPWord,
    cyclic_group,
    enumerate_words,
    fp_normalize,
    kernel_words,
    symmetric_group,
)

Z2 = cyclic_group(2)
S3 = symmetric_group(3)
sig = FPSignature(1, (Z2, S3))
print(f"signature: {sig.describe()}")

print("\n== normal forms ==")
w = fp_normalize(sig, [(0, 2), (0, -2), (1, 1), (2, 2), (2, 3)])
print(f"[(z1,2),(z1,-2),(g1,1),(g2,2),(g2,3)] normalizes to: {w}")
u = fp_normalize(sig, [(0, 1), (2, 1)])
v = fp_normalize(sig, [(2, 5), (0, -1)])
print(f"({u}) * ({v}) = {u * v}")
print(f"({u})^-1 = {u.inv()}")

print("\n== the quotient onto G_1 x G_2 ==")
for word in (u, u * v, fp_normalize(sig, [(0, 5)])):
    labels = tuple(sig.factor(j).labels[c] for j, c in enumerate(word.alpha_coords))
    print(f"alpha({word}) = {labels}")

print("\n== graded enumeration (shortlex) ==")
words = enumerate_words(sig, 2)
print(f"{len(words)} words of generator length <= 2; the first ten:")
for word in words[:10]:
    print(f"  {word}")
kernel = [FPWord(sig, ())] + list(kernel_words(sig, 4))
print(f"kernel words of length <= 4: {len(kernel)} (first five)")
for word in kernel[:5]:
    print(f"  {word}")
