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
    assert table == {((0, 1), (0, 1), (0, 1)): 12}
    with_loops = _by_edges(enumerate_graphs(2, 0, allow_loops=True))
    # dumbbell joins two loops by a bridge: 2 (swap ends) * 2 * 2 (loop flips)
    assert with_loops[((0, 0), (0, 1), (1, 1))] == 8
    assert set(with_loops) == {((0, 1), (0, 1), (0, 1)), ((0, 0), (0, 1), (1, 1))}


def test_single_two_valent_vertex_loop():
    table = _by_edges(enumerate_graphs(0, 1, allow_loops=True))
    assert table == {((0, 0),): 2}
    assert enumerate_graphs(0, 1) == []


def test_banana_and_cycles():
    # two 2-valent vertices: the double edge ("banana"), Aut = S_2 x S_2
    assert _by_edges(enumerate_graphs(0, 2)) == {((0, 1), (0, 1)): 4}
    # the n-cycle is the only loopless 2-regular connected graph: dihedral Aut
    for n in (3, 4, 5):
        (cls,) = enumerate_graphs(0, n)
        assert graphs.genus(cls.graph) == 1
        assert cls.automorphism_count == 2 * n


def test_theta_genus_and_degrees():
    (theta,) = enumerate_graphs(2, 0)
    assert graphs.genus(theta.graph) == 2
    assert theta.graph.degrees() == [3, 3]
    assert theta.graph.loop_count() == 0


def test_rejects_odd_degree_sum():
    with pytest.raises(ValueError, match="degree sum"):
        enumerate_graphs(1, 0)
    with pytest.raises(ValueError, match="degree sum"):
        enumerate_graphs(3, 2)
    with pytest.raises(ValueError):
        enumerate_graphs(0, 0)


def test_genus_requires_connected():
    with pytest.raises(ValueError):
        graphs.genus(FeynmanGraph(2, ()))


def test_edge_normalization_and_validation():
    g = FeynmanGraph(3, ((2, 1), (1, 0)))
    assert g.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        FeynmanGraph(2, ((0, 2),))


def _labeled_multigraph_count(target, allow_loops):
    """Oracle: count edge multisets on labeled vertices with given degrees."""
    s = len(target)
    candidates = [
        (u, v) for u in range(s) for v in range(u if allow_loops else u + 1, s)
    ]
    hits = 0

    def rec(start, remaining):
        nonlocal hits
        if all(x == 0 for x in remaining):
            hits += 1
            return
        for i in range(start, len(candidates)):
            u, v = candidates[i]
            need = 2 if u == v else 1
            if remaining[u] < need or (u != v and remaining[v] < 1):
                continue
            remaining[u] -= need
            if u != v:
                remaining[v] -= 1
            rec(i, remaining)
            remaining[u] += need
            if u != v:
                remaining[v] += 1

    rec(0, list(target))
    return hits


@pytest.mark.parametrize("t,c", [(2, 0), (0, 3), (2, 1), (2, 2), (4, 0), (0, 4)])
@pytest.mark.parametrize("allow_loops", [False, True])
def test_orbit_counts_recover_labeled_enumeration(t, c, allow_loops):
    # orbit-stabilizer: each class contributes t!c! * (parallel-edge and
    # loop factors) / Aut labeled graphs; disconnected ones counted apart
    target = [3] * t + [2] * c
    labeled_connected = 0
    seen = 0
    for cls in enumerate_graphs(t, c, allow_loops=allow_loops):
        g = cls.graph
        extra = 2 ** g.loop_count()
        for m in Counter(g.edges).values():
            extra *= factorial(m)
        orbit, rem = divmod(factorial(t) * factorial(c) * extra, cls.automorphism_count)
        assert rem == 0
        labeled_connected += orbit
        seen += 1
    # redo the labeled enumeration keeping only connected graphs
    s = t + c
    candidates = [
        (u, v) for u in range(s) for v in range(u if allow_loops else u + 1, s)
    ]
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
    labelled = labelled_graphs(t, c, allow_loops=allow_loops)
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


def test_canonical_form_is_relabeling_invariant():
    for cls in enumerate_graphs(2, 2, allow_loops=True):
        g = cls.graph
        base = graphs.canonical_form(g)
        degs = g.degrees()
        for phi in itertools.permutations(range(g.vertex_count)):
            if any(degs[v] != degs[phi[v]] for v in range(g.vertex_count)):
                continue
            assert graphs.canonical_form(graphs.relabel(g, phi)) == base


def test_to_dot_mentions_all_edges():
    (theta,) = enumerate_graphs(2, 0)
    dot = graphs.to_dot(theta.graph, title="theta")
    assert dot.startswith("graph theta {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -- ") == 3
    assert 'label="q3"' in dot
