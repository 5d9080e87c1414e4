"""Combinatorial nodal curves, dual graphs, and free-product presentations.

A curve is a list of components, each with distinct marked branch points,
plus nodes gluing branch pairs.  The fundamental-group presentation picks
a deterministic spanning tree of the dual graph (smallest node ids first);
the nodes left out index the Z generators, and the recorded path data says
which tree paths realize the gluing bookkeeping at each node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedCurve, InvalidCurve
from .groups import FPSignature


@dataclass(frozen=True)
class Node:
    id: str
    ends: tuple[tuple[str, str], tuple[str, str]]  # ((comp, branch), (comp, branch))


@dataclass(frozen=True)
class NodalCurve:
    components: tuple[tuple[str, tuple[str, ...]], ...]  # (id, branch labels)
    nodes: tuple[Node, ...]

    @classmethod
    def build(cls, components, nodes) -> "NodalCurve":
        comps = []
        for cid, branches in components:
            comps.append((str(cid), tuple(str(b) for b in branches)))
        node_objs = []
        for k, spec in enumerate(nodes):
            if isinstance(spec, Node):
                node_objs.append(spec)
                continue
            if len(spec) == 3:
                nid, ea, eb = spec
            else:
                ea, eb = spec
                nid = f"n{k}"
            node_objs.append(Node(str(nid), ((str(ea[0]), str(ea[1])),
                                             (str(eb[0]), str(eb[1])))))
        curve = cls(tuple(comps), tuple(node_objs))
        curve._validate()
        return curve

    def _validate(self):
        ids = [cid for cid, _ in self.components]
        if len(set(ids)) != len(ids) or not ids:
            raise InvalidCurve("component ids must be nonempty and distinct")
        branch_set = set()
        for cid, branches in self.components:
            if len(set(branches)) != len(branches):
                raise InvalidCurve(f"duplicate branch label on component {cid}")
            for b in branches:
                branch_set.add((cid, b))
        node_ids = [n.id for n in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            raise InvalidCurve("node ids must be distinct")
        used = set()
        for n in self.nodes:
            ea, eb = n.ends
            if ea == eb:
                raise InvalidCurve(f"node {n.id} must glue two distinct branch points")
            for end in n.ends:
                if end not in branch_set:
                    raise InvalidCurve(f"node {n.id} references unknown branch {end}")
                if end in used:
                    raise InvalidCurve(f"branch point {end} used by two nodes")
                used.add(end)
        for leftover in branch_set - used:
            raise InvalidCurve(
                f"branch point {leftover} is marked but not glued by any node")

    @property
    def component_ids(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.components)

    def component_index(self, cid: str) -> int:
        return self.component_ids.index(cid)

    def node_by_id(self, nid: str) -> Node:
        for n in self.nodes:
            if n.id == nid:
                return n
        raise InvalidCurve(f"no node {nid}")


@dataclass(frozen=True)
class Multigraph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (edge id, endpoint, endpoint)

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for _, a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


def dual_graph(curve: NodalCurve) -> Multigraph:
    """One vertex per component, one edge per node; self-nodes become loops."""
    g = Multigraph(curve.component_ids,
                   tuple((n.id, n.ends[0][0], n.ends[1][0]) for n in curve.nodes))
    if not g.is_connected():
        raise DisconnectedCurve("the dual graph of the curve is not connected")
    return g


def betti_rank(curve: NodalCurve) -> int:
    """Number of independent cycles of the dual graph: |nodes| - |components| + 1."""
    dual_graph(curve)
    return len(curve.nodes) - len(curve.components) + 1


@dataclass(frozen=True)
class Pi1Presentation:
    """Spanning-tree presentation data for the fundamental group of a curve.

    loop_nodes are ordered; the i-th one indexes the Z generator z_{i+1}.
    path_data records, per node id, the tree paths (sigma: base to the node's
    first end, tau: first end to second end through the tree for loop nodes,
    the node itself for tree nodes).
    """

    curve: NodalCurve
    r: int
    spanning_tree: tuple[str, ...]
    loop_nodes: tuple[str, ...]
    base_component: str
    path_data: tuple[tuple[str, tuple[tuple[str, ...], tuple[str, ...]]], ...]

    @property
    def signature(self) -> FPSignature:
        """Signature with placeholder factor slots, one per component."""
        return FPSignature(self.r, (None,) * len(self.curve.components))

    def signature_with(self, groups) -> FPSignature:
        return self.signature.with_factors(groups)

    def loop_index(self, node_id: str) -> int:
        return self.loop_nodes.index(node_id)


def pi1_presentation(curve: NodalCurve) -> Pi1Presentation:
    graph = dual_graph(curve)
    edges = sorted(graph.edges)  # Kruskal over lexicographic node ids
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree, loops = [], []
    for nid, a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            loops.append(nid)
        else:
            parent[ra] = rb
            tree.append(nid)

    base = min(graph.vertices)
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in graph.vertices}
    for nid in tree:
        n = curve.node_by_id(nid)
        ca, cb = n.ends[0][0], n.ends[1][0]
        adj[ca].append((nid, cb))
        adj[cb].append((nid, ca))

    def tree_path(src: str, dst: str) -> tuple[str, ...]:
        if src == dst:
            return ()
        prev: dict[str, tuple[str, str]] = {}
        stack = [src]
        seen = {src}
        while stack:
            v = stack.pop()
            for nid, w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    prev[w] = (nid, v)
                    stack.append(w)
        path = []
        v = dst
        while v != src:
            nid, v = prev[v]
            path.append(nid)
        return tuple(reversed(path))

    path_data = []
    for n in sorted(curve.nodes, key=lambda n: n.id):
        ca, cb = n.ends[0][0], n.ends[1][0]
        sigma = tree_path(base, ca)
        tau = tree_path(ca, cb) if n.id in loops else (n.id,)
        path_data.append((n.id, (sigma, tau)))

    return Pi1Presentation(
        curve=curve,
        r=len(loops),
        spanning_tree=tuple(tree),
        loop_nodes=tuple(loops),
        base_component=base,
        path_data=tuple(path_data),
    )


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
    return NodalCurve.build(comps, nodes)
