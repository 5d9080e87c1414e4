"""The word-indexed covering: components, free deck action, fundamental domains.

Components over the j-th curve component are right cosets G_j * s; an index
strips a leading j-factor letter when it is built, so any word of the coset
gives the same index.  The deck group over the finite cover (kernel words
acting by right concatenation) moves every component freely, while a single
factor letter fixes its base component: the two facts that make descent work
only after passing to the finite cover.

Run:  python demos/04_coverings_and_domains.py
"""

from nodalcover.covering import (
    ComponentIndex,
    certify_free_action,
    component_action,
    cover_witness,
    enumerate_components,
    fundamental_domain,
)
from nodalcover.groups import FPSignature, cyclic_group, fp_normalize

Z2, Z3 = cyclic_group(2), cyclic_group(3)
sig = FPSignature(1, (Z2, Z3))

print("== canonical component indices ==")
s = fp_normalize(sig, [(0, 1), (2, 2)])
c = ComponentIndex(0, sig, s.letters)
print(f"component through {s}: {c}")
gs = fp_normalize(sig, [(1, 1)]) * s  # built from g1 s, stored as s
print(f"same coset after a leading factor letter: {ComponentIndex(0, sig, gs.letters) == c}")

print("\n== the action: full group vs kernel ==")
base = ComponentIndex(0, sig, ())
g = fp_normalize(sig, [(1, 1)])
print(f"factor letter g1 fixes the base component: {component_action(g, base) == base}")
z = fp_normalize(sig, [(0, 1)])
print(f"the kernel word z1 moves it: {component_action(z, base)} != {base}")

report = certify_free_action(sig, max_len=4)
print(f"\nfreeness is proved for every kernel word; up to length 4 the walk counts "
      f"{report.kernel_words} kernel words and {report.components} components")
print(f"full-group witnesses (the action upstairs is NOT free): "
      f"{report.full_group_witnesses}")

print("\n== a fundamental domain and its coverage witnesses ==")
dom = fundamental_domain(sig, z)
print(f"core components ({len(dom.core)} of at most {dom.size_bound}):")
for comp in dom.core:
    print(f"  {comp}")
print(f"boundary lifts: {len(dom.boundary)}")
print("\nevery component is a kernel translate of the core:")
for target in enumerate_components(sig, 2)[:8]:
    t = cover_witness(dom, target)
    print(f"  {target}  <-  translate by  {t}")
