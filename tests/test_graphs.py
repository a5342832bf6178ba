"""Multigraph enumeration and automorphism counting."""

import itertools
from collections import Counter
from math import comb, factorial

import pytest

from twisted_hurwitz import graphs
from twisted_hurwitz.graphs import FeynmanGraph, enumerate_graphs, labelled_graphs, vertex_profiles


def _by_edges(classes):
    return {cls.graph.edges: cls.automorphism_count for cls in classes}


def test_two_threevalent_vertices():
    table = _by_edges(enumerate_graphs(2, 0))
    # theta: three parallel edges; Aut = S_2 x S_3
    # the dumbbell joins two loops by a bridge: 2 (swap ends) * 2 * 2 (loop
    # flips); its loops sit on two positions, so it is not enumerated
    assert graphs.automorphism_count(FeynmanGraph(2, ((0, 0), (0, 1), (1, 1)))) == 8


def test_single_two_valent_vertex_loop():
    # the one position of g = 2 is the only place a loop is enumerated
    assert _by_edges(enumerate_graphs(0, 1)) == {((0, 0),): 2}
    assert labelled_graphs(0, 1) == (FeynmanGraph(1, ((0, 0),)),)


def test_banana_and_cycles():
    # two 2-valent vertices: the double edge ("banana"), Aut = S_2 x S_2
    assert _by_edges(enumerate_graphs(0, 2)) == {((0, 1), (0, 1)): 4}
    # the n-cycle is the only loopless 2-regular connected graph: dihedral Aut
    for n in (3, 4, 5):
        (cls,) = enumerate_graphs(0, n)
        assert len(cls.graph.edges) - n + 1 == 1  # first Betti number
        assert cls.automorphism_count == 2 * n


def test_theta_genus_and_degrees():
    (theta,) = enumerate_graphs(2, 0)
    assert len(theta.graph.edges) - 2 + 1 == 2  # first Betti number
    assert theta.graph.degrees() == [3, 3]
    assert theta.graph.loop_count() == 0


def test_rejects_odd_degree_sum():
    with pytest.raises(ValueError, match="degree sum"):
        enumerate_graphs(1, 0)
    with pytest.raises(ValueError, match="degree sum"):
        enumerate_graphs(3, 2)
    with pytest.raises(ValueError):
        enumerate_graphs(0, 0)


def test_edge_normalization_and_validation():
    g = FeynmanGraph(3, ((2, 1), (1, 0)))
    assert g.edges == ((0, 1), (1, 2))
    assert FeynmanGraph(2, [[1, 0], [1, 1]]).edges == ((0, 1), (1, 1))
    assert FeynmanGraph(0, ()).degrees() == []
    with pytest.raises(ValueError):
        FeynmanGraph(2, ((0, 2),))


@pytest.mark.parametrize("vertex_count,edges,error,message", [
    (2.5, ((0, 1),), TypeError, "vertex_count must be an int"),
    (2.0, (), TypeError, "vertex_count must be an int"),
    (True, (), TypeError, "vertex_count must be an int"),
    ("2", (), TypeError, "vertex_count must be an int"),
    (-1, (), ValueError, "vertex_count must be >= 0"),
    (3, ((0, 1, 2),), ValueError, "not a pair of vertices"),
    (3, ((0,),), ValueError, "not a pair of vertices"),
    (3, (0,), TypeError, "not a pair of vertices"),
    (3, ((0, 1.0),), TypeError, "not a pair of ints"),
    (3, ((True, 1),), TypeError, "not a pair of ints"),
    (3, (("0", "1"),), TypeError, "not a pair of ints"),
    (3, ("01",), TypeError, "not a pair of ints"),
    (2, ((0, 2),), ValueError, "out of range"),
    (2, ((-1, 0),), ValueError, "out of range"),
    (0, ((0, 0),), ValueError, "out of range"),
])
def test_feynman_graph_refuses_bad_input(vertex_count, edges, error, message):
    with pytest.raises(error, match=message):
        FeynmanGraph(vertex_count, edges)


@pytest.mark.parametrize("t,c", [(0, 1), (2, 0), (0, 3), (2, 1), (2, 2), (4, 0), (0, 4)])
def test_orbit_counts_recover_labeled_enumeration(t, c):
    # orbit-stabilizer: each class contributes t!c! * (parallel-edge and
    # loop factors) / Aut labeled graphs; disconnected ones counted apart
    target = [3] * t + [2] * c
    labeled_connected = 0
    seen = 0
    for cls in enumerate_graphs(t, c):
        g = cls.graph
        extra = 2 ** g.loop_count()
        for m in Counter(g.edges).values():
            extra *= factorial(m)
        orbit, rem = divmod(factorial(t) * factorial(c) * extra, cls.automorphism_count)
        assert rem == 0
        labeled_connected += orbit
        seen += 1
    # redo the labeled enumeration keeping only connected graphs, with a
    # loop only on a single position
    s = t + c
    candidates = [(u, v) for u in range(s) for v in range(u + (s > 1), s)]
    oracle = 0

    def rec(start, remaining, chosen):
        nonlocal oracle
        if all(x == 0 for x in remaining):
            if FeynmanGraph(s, tuple(chosen)).is_connected():
                oracle += 1
            return
        for i in range(start, len(candidates)):
            u, v = candidates[i]
            need = 2 if u == v else 1
            if remaining[u] < need or (u != v and remaining[v] < 1):
                continue
            remaining[u] -= need
            if u != v:
                remaining[v] -= 1
            chosen.append((u, v))
            rec(i, remaining, chosen)
            chosen.pop()
            remaining[u] += need
            if u != v:
                remaining[v] += 1

    rec(0, list(target), [])
    assert labeled_connected == oracle
    if seen:
        assert labeled_connected >= seen
    # the labelled enumerator: this placement, and all C(s, t) placements
    labelled = labelled_graphs(t, c)
    assert sum(1 for graph in labelled if graph.degrees() == target) == oracle
    assert len(labelled) == comb(s, t) * oracle


@pytest.mark.parametrize("g,count", [(3, 2), (4, 4), (5, 40), (6, 472)])
def test_labelled_graph_counts(g, count):
    found = [graph for t, c in vertex_profiles(g) for graph in labelled_graphs(t, c)]
    assert len(found) == count
    assert len({graph.edges for graph in found}) == count
    for graph in found:
        assert graph.is_connected()
        assert graph.vertex_count == g - 1
        assert set(graph.degrees()) <= {2, 3}
        assert graph.loop_count() == 0


def _tree_nodes(t, c):
    """Every node of the profile's edge tree as (valences, path, left at
    v, left at u, parallel, is a leaf), depth first."""
    found = []

    def visit(nodes, path, valences):
        for v, u, left_v, left_u, parallel, children in nodes:
            here = path + ((v, u),)
            found.append((valences, here, left_v, left_u, parallel, not children))
            visit(children, here, valences)

    for valences, nodes in graphs.edge_tree(t, c):
        visit(nodes, (), valences)
    return found


@pytest.mark.parametrize("g,node_count", [
    (2, 1), (3, 5), (4, 15), (5, 176), (6, 1995), (7, 30300)])
def test_edge_tree_invariants(g, node_count):
    nodes = [node for t, c in vertex_profiles(g) for node in _tree_nodes(t, c)]
    # the leaves, in walk order, are labelled_graphs' edge tuples
    leaves = [(valences, path) for valences, path, *_rest, leaf in nodes if leaf]
    listed = [graph for t, c in vertex_profiles(g) for graph in labelled_graphs(t, c)]
    assert [path for _valences, path in leaves] == [graph.edges for graph in listed]
    assert [list(valences) for valences, _path in leaves] == [graph.degrees() for graph in listed]
    # one node per distinct edge prefix of the leaves: no node is a dead end
    prefixes = {(valences, path[:k]) for valences, path in leaves for k in range(1, len(path) + 1)}
    assert len(nodes) == len(prefixes) == node_count
    # each node's open ends and parallel flag, recomputed from its path; a
    # loop only on the one position of g = 2
    for valences, path, left_v, left_u, parallel, _leaf in nodes:
        v, u = path[-1]
        assert (v == u) == (g == 2), path
        left = [valence - sum(edge.count(x) for edge in path) for x, valence in enumerate(valences)]
        assert (left_v, left_u) == (left[v], left[u]), path
        assert parallel == (len(path) > 1 and path[-2] == path[-1]), path


def test_edge_tree_is_cached_and_checks_its_profile():
    assert graphs.edge_tree(4, 2) is graphs.edge_tree(4, 2)
    assert graphs.labelled_graphs(4, 2) is graphs.labelled_graphs(4, 2)
    for t, c in ((1, 0), (3, 2)):
        with pytest.raises(ValueError, match="degree sum"):
            graphs.edge_tree(t, c)
    for t, c in ((0, 0), (-1, 1), (2, -1)):
        with pytest.raises(ValueError, match="positive number of vertices"):
            graphs.edge_tree(t, c)


def test_walk_tree_cuts_below_a_falsy_state():
    # a state counting edges down from 2 dies at the third edge: every
    # node of depth <= 3 is stepped, nothing below, and no leaf is reached
    steps, leaves = [], []

    def step(state, _valences, v, u, *_rest):
        steps.append((v, u))
        return state - 1

    graphs.walk_tree(2, 2, 3, step, lambda *args: leaves.append(args))
    shallow = sum(len(path) <= 3 for _valences, path, *_rest in _tree_nodes(2, 2))
    assert len(steps) == shallow > 0 and leaves == []
    # an always-true state reaches every leaf with its valences and edges
    graphs.walk_tree(2, 2, 1, lambda state, *_edge: state, lambda *args: leaves.append(args))
    assert [(list(valences), edges) for _state, valences, edges in leaves] == [
        (graph.degrees(), graph.edges) for graph in labelled_graphs(2, 2)]


def test_canonical_form_is_relabeling_invariant():
    for cls in enumerate_graphs(2, 2):
        g = cls.graph
        base = graphs.canonical_form(g)
        degs = g.degrees()
        for phi in itertools.permutations(range(g.vertex_count)):
            if any(degs[v] != degs[phi[v]] for v in range(g.vertex_count)):
                continue
            relabelled = FeynmanGraph(g.vertex_count, [(phi[u], phi[v]) for u, v in g.edges])
            assert graphs.canonical_form(relabelled) == base
