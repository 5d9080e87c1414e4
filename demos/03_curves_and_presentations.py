"""Nodal curves, their dual graphs, and spanning-tree presentations.

The number of independent cycles of the dual graph counts the Z generators
of the fundamental group; the finite factors attach later, one quotient per
component, at the representation level.

Run:  python demos/03_curves_and_presentations.py
"""

from nodalcover.curves import NodalCurve, betti_rank, pi1_presentation

print("== a nodal cubic: one component glued to itself ==")
cubic = NodalCurve.build([("C1", ("a", "b"))],
                         [("x0", ("C1", "a"), ("C1", "b"))])
print(f"cycle rank: {betti_rank(cubic)}")
pres = pi1_presentation(cubic)
print(f"loop nodes -> Z generators: {dict(enumerate(pres.loop_nodes, 1))}")

print("\n== a triangle of three rational curves ==")
triangle = NodalCurve.build(
    [("C1", ("a", "b")), ("C2", ("a", "b")), ("C3", ("a", "b"))],
    [("n0", ("C1", "b"), ("C2", "a")),
     ("n1", ("C2", "b"), ("C3", "a")),
     ("n2", ("C3", "b"), ("C1", "a"))])
print(f"dual graph: {len(triangle.components)} vertices, {len(triangle.nodes)} edges")
pres = pi1_presentation(triangle)
print(f"spanning tree: {pres.spanning_tree}, loop node: {pres.loop_nodes}")
print(f"base component: {pres.base_component}")
for nid, (sigma, tau) in pres.path_data:
    print(f"  node {nid}: path from base {list(sigma) or '[]'}, gluing path {list(tau)}")

print("\n== degenerate curves of arithmetic genus g ==")
for genus in (2, 3, 4):
    comps = [("A", tuple(f"a{i}" for i in range(genus + 1))),
             ("B", tuple(f"b{i}" for i in range(genus + 1)))]
    nodes = [(f"n{i}", ("A", f"a{i}"), ("B", f"b{i}")) for i in range(genus + 1)]
    curve = NodalCurve.build(comps, nodes)
    print(f"two components, {genus + 1} nodes: rank {betti_rank(curve)}")
