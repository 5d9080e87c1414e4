"""Combinatorial nodal curves, dual graphs, and free-product presentations.

A curve is a list of components, each with distinct marked branch points,
plus nodes gluing branch pairs.  One Kruskal spanning forest of the dual
graph (smallest node ids first) decides connectivity, for `dual_graph` and
`betti_rank`, and gives the fundamental-group presentation: the nodes left
out index the Z generators, and the recorded path data, read off one walk of
the tree from the base component, says which tree paths realize the gluing
bookkeeping at each node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedCurve, InvalidCurve


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


@dataclass(frozen=True)
class Multigraph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (edge id, endpoint, endpoint)


def _spanning_forest(curve: NodalCurve):
    """The dual graph, its Kruskal spanning forest over lexicographic node ids
    as (node id, endpoint, endpoint) edges, and the node ids left out.  The
    graph is connected exactly when the forest is a tree, with |V| - 1 edges;
    a disconnected one is refused."""
    graph = Multigraph(curve.component_ids,
                       tuple((n.id, n.ends[0][0], n.ends[1][0]) for n in curve.nodes))
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree, loops = [], []
    for nid, a, b in sorted(graph.edges):
        ra, rb = find(a), find(b)
        if ra == rb:
            loops.append(nid)
        else:
            parent[ra] = rb
            tree.append((nid, a, b))
    if len(tree) != len(graph.vertices) - 1:
        raise DisconnectedCurve("the dual graph of the curve is not connected")
    return graph, tree, loops


def dual_graph(curve: NodalCurve) -> Multigraph:
    """One vertex per component, one edge per node; self-nodes become loops."""
    return _spanning_forest(curve)[0]


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

    def loop_index(self, node_id: str) -> int:
        return self.loop_nodes.index(node_id)


def pi1_presentation(curve: NodalCurve) -> Pi1Presentation:
    graph, tree, loops = _spanning_forest(curve)
    base = min(graph.vertices)
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in graph.vertices}
    for nid, a, b in tree:
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

    loop_set = set(loops)
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

    return Pi1Presentation(
        curve=curve,
        r=len(loops),
        spanning_tree=tuple(nid for nid, _, _ in tree),
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
