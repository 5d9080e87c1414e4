"""Combinatorial nodal curves, dual graphs, and free-product presentations.

A curve is a list of components, each with distinct marked branch points,
plus nodes gluing branch pairs.  A `NodalCurve` is checked once, when it is
built: every branch point glued by exactly one node, and a connected dual
graph.  Connectivity is decided by one Kruskal spanning forest of the dual
graph (smallest node ids first), which the curve keeps.  The nodes the tree
leaves out index the Z generators of the fundamental-group presentation, and
the recorded path data, read off one walk of the tree from the base
component, says which tree paths realize the gluing bookkeeping at each node.

`NodalCurve` and `Pi1Presentation` are plain classes whose fields are
read-only by contract; `Node`, a pure record, is a `typing.NamedTuple`.  A
curve's one constructor takes (id, branches) components and (id, end, end)
nodes and stores them as tuples, each node as a `Node`; it converts no id or
label, so equal inputs as lists or as tuples give equal curves.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DisconnectedCurve, InvalidCurve


class Node(NamedTuple):
    id: str
    ends: tuple[tuple[str, str], tuple[str, str]]  # ((comp, branch), (comp, branch))


class NodalCurve:
    """A connected nodal curve, with its dual graph's Kruskal spanning tree
    as (node id, endpoint, endpoint) edges and the node ids it leaves out;
    those two are derived and take no part in equality."""

    def __init__(self, components, nodes):
        """From (id, branch labels) components and (id, end, end) nodes, each
        end a (component id, branch label) pair."""
        self.components = components = tuple(
            (cid, tuple(branches)) for cid, branches in components)
        self.nodes = nodes = tuple(Node(nid, (tuple(ea), tuple(eb))) for nid, ea, eb in nodes)
        ids = self.component_ids
        if len(set(ids)) != len(ids) or not ids:
            raise InvalidCurve("component ids must be nonempty and distinct")
        branch_set = set()
        for cid, branches in components:
            if len(set(branches)) != len(branches):
                raise InvalidCurve(f"duplicate branch label on component {cid}")
            for b in branches:
                branch_set.add((cid, b))
        node_ids = [n.id for n in nodes]
        if len(set(node_ids)) != len(node_ids):
            raise InvalidCurve("node ids must be distinct")
        used = set()
        for n in nodes:
            ea, eb = n.ends
            if ea == eb:
                raise InvalidCurve(f"node {n.id} must glue two distinct branch points")
            for end in n.ends:
                if end not in branch_set:
                    raise InvalidCurve(f"node {n.id} references unknown branch {end}")
                if end in used:
                    raise InvalidCurve(f"branch point {end} used by two nodes")
                used.add(end)
        for leftover in sorted(branch_set - used):
            raise InvalidCurve(
                f"branch point {leftover} is marked but not glued by any node")

        parent = {v: v for v in ids}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        tree, loops = [], []
        for nid, a, b in sorted((n.id, n.ends[0][0], n.ends[1][0]) for n in nodes):
            ra, rb = find(a), find(b)
            if ra == rb:
                loops.append(nid)
            else:
                parent[ra] = rb
                tree.append((nid, a, b))
        # the graph is connected exactly when the forest is a tree
        if len(tree) != len(ids) - 1:
            raise DisconnectedCurve("the dual graph of the curve is not connected")
        self.tree_edges = tuple(tree)
        self.loop_nodes = tuple(loops)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.components, self.nodes) == (other.components, other.nodes)

    def __hash__(self):
        return hash((self.components, self.nodes))

    @property
    def component_ids(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.components)


def betti_rank(curve: NodalCurve) -> int:
    """Number of independent cycles of the dual graph: |nodes| - |components| + 1."""
    return len(curve.nodes) - len(curve.components) + 1


class Pi1Presentation:
    """Spanning-tree presentation data for the fundamental group of a curve,
    read off the curve alone: the tree is the curve's Kruskal tree, rooted at
    the least component id (`base_component`), and one walk of it gives the
    rest.  `r`, `spanning_tree`, `loop_nodes`, `base_component` and
    `path_data` are derived and take no part in equality.

    loop_nodes are ordered; the i-th one indexes the Z generator z_{i+1}.
    path_data records, per node id, the tree paths (sigma: base to the node's
    first end, tau: first end to second end through the tree for loop nodes,
    the node itself for tree nodes).
    """

    def __init__(self, curve: NodalCurve):
        base = min(curve.component_ids)
        adj: dict[str, list[tuple[str, str]]] = {v: [] for v in curve.component_ids}
        for nid, a, b in curve.tree_edges:
            adj[a].append((nid, b))
            adj[b].append((nid, a))
        root_path = {base: ()}  # component -> the tree path from base to it
        stack = [base]
        while stack:
            v = stack.pop()
            for nid, w in adj[v]:
                if w not in root_path:
                    root_path[w] = root_path[v] + (nid,)
                    stack.append(w)

        loop_set = set(curve.loop_nodes)
        path_data = []
        for n in sorted(curve.nodes, key=lambda n: n.id):
            sigma = root_path[n.ends[0][0]]
            if n.id in loop_set:
                # up from the first end to the last component both root paths
                # share, then down to the second end: the one path in the tree
                other = root_path[n.ends[1][0]]
                k = 0
                while k < min(len(sigma), len(other)) and sigma[k] == other[k]:
                    k += 1
                tau = sigma[k:][::-1] + other[k:]
            else:
                tau = (n.id,)
            path_data.append((n.id, (sigma, tau)))

        self.curve = curve
        self.r = len(curve.loop_nodes)
        self.spanning_tree = tuple(nid for nid, _, _ in curve.tree_edges)
        self.loop_nodes = curve.loop_nodes
        self.base_component = base
        self.path_data = tuple(path_data)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.curve == other.curve

    def __hash__(self):
        return hash(self.curve)


def pi1_presentation(curve: NodalCurve) -> Pi1Presentation:
    """`Pi1Presentation(curve)`, which `perfbench/tracing.py` wraps by name."""
    return Pi1Presentation(curve)


def chain_curve_for_signature(r: int, num_components: int) -> NodalCurve:
    """Minimal curve realizing a bare signature: components in a chain with
    r extra self-nodes on the first component.  Used when domain bookkeeping
    is requested without an explicit curve."""
    comps = []
    for j in range(num_components):
        branches = []
        if j > 0:
            branches.append("L")
        if j < num_components - 1:
            branches.append("R")
        if j == 0:
            branches.extend(f"s{i}{side}" for i in range(r) for side in ("a", "b"))
        comps.append((f"C{j + 1}", tuple(branches)))
    nodes = []
    for j in range(num_components - 1):
        nodes.append((f"n{j}", (f"C{j + 1}", "R"), (f"C{j + 2}", "L")))
    for i in range(r):
        nodes.append((f"x{i}", ("C1", f"s{i}a"), ("C1", f"s{i}b")))
    return NodalCurve(comps, nodes)
