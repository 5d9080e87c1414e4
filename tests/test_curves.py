"""Nodal curves, dual graphs, cycle ranks, spanning-tree presentations."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from nodalcover.curves import (
    NodalCurve,
    betti_rank,
    chain_curve_for_signature,
    pi1_presentation,
)
from nodalcover.errors import DisconnectedCurve, InvalidCurve

from helpers import pi1_presentation_oracle


def nodal_cubic():
    return NodalCurve([("C1", ("a", "b"))],
                      [("x0", ("C1", "a"), ("C1", "b"))])


def triangle():
    return NodalCurve(
        [("C1", ("a", "b")), ("C2", ("a", "b")), ("C3", ("a", "b"))],
        [("n0", ("C1", "b"), ("C2", "a")),
         ("n1", ("C2", "b"), ("C3", "a")),
         ("n2", ("C3", "b"), ("C1", "a"))])


def two_components_two_nodes():
    return NodalCurve(
        [("A", ("p", "q")), ("B", ("p", "q"))],
        [("n0", ("A", "p"), ("B", "p")), ("n1", ("A", "q"), ("B", "q"))])


# -- dual graphs ----------------------------------------------------------------

def test_dual_graph_examples():
    # the nodal cubic's one node is a self-node: a loop at its one vertex
    cubic = nodal_cubic()
    assert cubic.component_ids == ("C1",)
    assert [c for c, _ in cubic.nodes[0].ends] == ["C1", "C1"]
    g3 = triangle()
    assert len(g3.components) == 3 and len(g3.nodes) == 3
    g2 = two_components_two_nodes()
    assert len(g2.components) == 2 and len(g2.nodes) == 2


def test_disconnected_curve_surfaces():
    with pytest.raises(DisconnectedCurve, match="the dual graph of the curve is not connected"):
        NodalCurve(
            [("A", ("p", "q")), ("B", ("p", "q"))],
            [("n0", ("A", "p"), ("A", "q")), ("n1", ("B", "p"), ("B", "q"))])


def test_direct_construction_is_checked():
    """A curve given as tuples is refused on the same grounds as one given
    as lists."""
    with pytest.raises(DisconnectedCurve, match="the dual graph of the curve is not connected"):
        NodalCurve((("A", ("p", "q")), ("B", ())),
                   (("n0", ("A", "p"), ("A", "q")),))
    # of two unglued branch points, the first in sorted order is named
    with pytest.raises(InvalidCurve, match=re.escape(
            "branch point ('A', 'p') is marked but not glued by any node")):
        NodalCurve((("A", ("p",)), ("B", ("q",))), ())


def test_structural_validation():
    with pytest.raises(InvalidCurve):
        NodalCurve([("A", ("p",))],
                   [("n0", ("A", "p"), ("A", "p"))])  # same branch twice
    with pytest.raises(InvalidCurve):
        NodalCurve([("A", ("p", "q")), ("B", ("p",))],
                   [("n0", ("A", "p"), ("B", "p")),
                    ("n1", ("A", "p"), ("A", "q"))])  # branch reused
    with pytest.raises(InvalidCurve):
        NodalCurve([("A", ("p", "q", "spare"))],
                   [("n0", ("A", "p"), ("A", "q"))])  # unglued branch


# -- cycle rank -------------------------------------------------------------------

def test_betti_examples():
    assert betti_rank(nodal_cubic()) == 1
    assert betti_rank(triangle()) == 1
    assert betti_rank(two_components_two_nodes()) == 1


def test_degenerate_genus_g_has_rank_g():
    # two rational components joined at g + 1 nodes has arithmetic genus g
    for g in range(2, 6):
        comps = [("A", tuple(f"a{i}" for i in range(g + 1))),
                 ("B", tuple(f"b{i}" for i in range(g + 1)))]
        nodes = [(f"n{i}", ("A", f"a{i}"), ("B", f"b{i}")) for i in range(g + 1)]
        assert betti_rank(NodalCurve(comps, nodes)) == g


def _random_connected_curve(rng):
    n = rng.randint(1, 7)
    pairs = [(rng.randrange(k), k) for k in range(1, n)]
    extra = rng.randint(0, 6)
    for _ in range(extra):
        pairs.append((rng.randrange(n), rng.randrange(n)))
    comps = [[f"C{i}", []] for i in range(n)]
    nodes = []
    for k, (a, b) in enumerate(pairs):
        comps[a][1].append(f"x{k}a")
        comps[b][1].append(f"x{k}b")
        nodes.append((f"n{k}", (f"C{a}", f"x{k}a"), (f"C{b}", f"x{k}b")))
    return NodalCurve([(c, tuple(b)) for c, b in comps], nodes)


def test_betti_matches_spanning_tree_oracle():
    rng = random.Random(41)
    for _ in range(60):
        curve = _random_connected_curve(rng)
        # DFS spanning tree, counted independently of the Kruskal code path
        ids = curve.component_ids
        adj = {v: [] for v in ids}
        for n in curve.nodes:
            (a, _), (b, _) = n.ends
            adj[a].append(b)
            adj[b].append(a)
        seen, stack, tree_edges = {ids[0]}, [ids[0]], 0
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    tree_edges += 1
                    stack.append(w)
        assert betti_rank(curve) == len(curve.nodes) - tree_edges


def test_betti_invariant_under_relabeling():
    rng = random.Random(43)
    for _ in range(20):
        curve = _random_connected_curve(rng)
        ids = list(curve.component_ids)
        rng.shuffle(ids)
        mapping = dict(zip(curve.component_ids, ids))
        comps = [(mapping[cid], brs) for cid, brs in curve.components]
        nodes = [(n.id, (mapping[n.ends[0][0]], n.ends[0][1]),
                  (mapping[n.ends[1][0]], n.ends[1][1])) for n in curve.nodes]
        relabeled = NodalCurve(comps, nodes)
        assert betti_rank(relabeled) == betti_rank(curve)


# -- presentations -------------------------------------------------------------------

def test_presentation_nodal_cubic():
    pres = pi1_presentation(nodal_cubic())
    assert pres.r == 1
    assert pres.loop_nodes == ("x0",)
    assert pres.spanning_tree == ()


def test_presentation_tree_curve_has_rank_zero():
    chain = chain_curve_for_signature(0, 4)
    pres = pi1_presentation(chain)
    assert pres.r == 0
    assert set(pres.spanning_tree) == {n.id for n in chain.nodes}


def test_presentation_triangle_tie_break():
    pres = pi1_presentation(triangle())
    assert pres.r == 1
    # the smallest node ids are taken greedily, so the largest closes the cycle
    assert pres.loop_nodes == ("n2",)
    assert pres.spanning_tree == ("n0", "n1")


def test_presentation_invariants():
    rng = random.Random(47)
    for _ in range(30):
        curve = _random_connected_curve(rng)
        pres = pi1_presentation(curve)
        assert len(pres.loop_nodes) == betti_rank(curve)
        assert set(pres.spanning_tree) | set(pres.loop_nodes) == \
            {n.id for n in curve.nodes}
        assert not (set(pres.spanning_tree) & set(pres.loop_nodes))
        # the tree spans: it connects all components with no cycles
        assert len(pres.spanning_tree) == len(curve.components) - 1
        # paths land where they claim: walk the tree edges step by step
        nodes = {n.id: n for n in curve.nodes}
        tree_nodes = {nid: nodes[nid] for nid in pres.spanning_tree}

        def walk(start, path):
            at = start
            for nid in path:
                ends = tree_nodes[nid].ends
                assert at in (ends[0][0], ends[1][0])
                at = ends[1][0] if at == ends[0][0] else ends[0][0]
            return at

        for nid, (sigma, tau) in pres.path_data:
            node = nodes[nid]
            assert all(x in pres.spanning_tree for x in sigma)
            assert walk(pres.base_component, sigma) == node.ends[0][0]
            if nid in pres.spanning_tree:
                assert tau == (nid,)
            else:
                assert all(x in pres.spanning_tree for x in tau)
                assert walk(node.ends[0][0], tau) == node.ends[1][0]


def test_base_choice_does_not_change_rank():
    curve = triangle()
    pres = pi1_presentation(curve)
    # relabel so a different component is lexicographically first
    relabeled = NodalCurve(
        [("Z1", ("a", "b")), ("C2", ("a", "b")), ("C3", ("a", "b"))],
        [("n0", ("Z1", "b"), ("C2", "a")),
         ("n1", ("C2", "b"), ("C3", "a")),
         ("n2", ("C3", "b"), ("Z1", "a"))])
    pres2 = pi1_presentation(relabeled)
    assert pres2.base_component != pres.base_component
    assert pres2.r == pres.r
    assert len(pres2.path_data) == len(pres.path_data)


@st.composite
def random_curve_specs(draw):
    """(components, nodes) as selfcheck's `_random_curve` draws them, 1-8
    components and up to 14 nodes, but with the spanning chain of nodes only
    half the time, so disconnected graphs come too, and node ids in a drawn
    order, so the forest's lexicographic order is not the order the nodes
    were built in."""
    n_comp = draw(st.integers(1, 8))
    pairs = []
    if draw(st.booleans()):
        pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n_comp)]
    comp = st.integers(0, n_comp - 1)
    pairs += draw(st.lists(st.tuples(comp, comp), max_size=14 - len(pairs)))
    ids = draw(st.permutations(range(len(pairs))))
    comps = [[f"C{i}", []] for i in range(n_comp)]
    nodes = []
    for k, (a, b) in zip(ids, pairs):
        ba, bb = f"b{k}a", f"b{k}b"
        comps[a][1].append(ba)
        comps[b][1].append(bb)
        nodes.append((f"n{k:02d}", (f"C{a}", ba), (f"C{b}", bb)))
    return [(c, tuple(bs)) for c, bs in comps], nodes


@settings(max_examples=200, deadline=None)
@given(random_curve_specs())
def test_presentation_equals_the_three_walk_oracle(spec):
    """One forest at construction and one tree walk give the presentation
    that a DFS for connectivity, Kruskal and a DFS per tree path give, and
    construction refuses exactly the graphs the oracle's DFS finds
    disconnected."""
    try:
        expected = pi1_presentation_oracle(*spec)
    except DisconnectedCurve:
        with pytest.raises(DisconnectedCurve):
            NodalCurve(*spec)
        return
    pres = pi1_presentation(NodalCurve(*spec))
    assert (pres.curve, pres.r, pres.spanning_tree, pres.loop_nodes,
            pres.base_component, pres.path_data) == expected
