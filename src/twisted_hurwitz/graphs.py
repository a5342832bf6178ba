"""Connected multigraphs with 2- and 3-valent vertices.

These are the combinatorial types underlying quotient covers: vertices of
valence 3 (simple branch vertices) and valence 2 (images of 4-valent
vertices upstairs).  Both graph pipelines sum over every such graph on
the positions 0..s-1, for every placement of the valences, each edge
multiset once.  ``edge_tree`` holds them as one cached enumeration tree
per profile, in which graphs that share their first edges share the path
of those edges, and both counts walk it with ``walk_tree``: each keeps
one state per edge prefix and cuts a subtree as soon as its state is
empty.  ``labelled_graphs`` lists the tree's leaves as FeynmanGraphs, for
``enumerate_graphs`` and per-graph checks; no counting path builds it.
``enumerate_graphs`` gives isomorphism classes (3-valent vertices first)
by a minimal canonical form over the degree-preserving vertex bijections;
no counting path needs them either.

A loop is placed only when there is a single position: the lone 2-valent
vertex at g = 2, whose loop is the whole graph.  With two or more
positions no pipeline can use one.  A loop moves no net weight through
its vertex, so on a 3-valent vertex the third germ's edge, of weight at
least 1, cannot balance; and on a 2-valent vertex it takes both germs,
cutting that vertex off from the rest.  So the rule lives here, and no
caller chooses it.

Automorphism counts are multigraph automorphisms: vertex bijections fixing
the edge multiset, times permutations of parallel edges, times a factor 2
per loop (the two half-edges of a loop may be swapped).  This is the group
the cover-multiplicity formulas divide by.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from .record import Record


def connected(n: int, pairs) -> bool:
    """Do the pairs join the points 0..n-1 into one component?  False for
    n == 0.  Union-find with path halving."""
    if n == 0:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1


class FeynmanGraph(Record):
    """Multigraph on vertices 0..vertex_count-1; edges are unordered pairs.

    ``edges`` is kept sorted with each pair (u, v) satisfying u <= v, so two
    equal graphs compare equal structurally.  A pair with u == v is a loop
    and contributes 2 to the valence of u.  ``vertex_count`` is an int (not
    a bool) >= 0 and each edge a pair of ints in range; other input raises
    TypeError or ValueError here.
    """

    __slots__ = _fields = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges):
        if type(vertex_count) is not int:
            raise TypeError("vertex_count must be an int, not %r" % (vertex_count,))
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0, not %d" % vertex_count)
        norm = []
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError) as error:
                raise type(error)("edge %r is not a pair of vertices" % (edge,)) from None
            if type(u) is not int or type(v) is not int:
                raise TypeError("edge %r is not a pair of ints" % (edge,))
            if u > v:
                u, v = v, u
            if not (0 <= u and v < vertex_count):
                raise ValueError("edge (%r, %r) out of range" % (u, v))
            norm.append((u, v))
        norm.sort()
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(norm))

    def degrees(self) -> list:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def loop_count(self) -> int:
        return sum(1 for u, v in self.edges if u == v)

    def is_connected(self) -> bool:
        return connected(self.vertex_count, self.edges)


class GraphClass(Record):
    """An isomorphism class: a representative graph and the order of its
    automorphism group."""

    __slots__ = _fields = ("graph", "automorphism_count")


def vertex_profiles(g: int):
    """(three_valent, two_valent) vertex counts compatible with genus g:
    g - 1 vertices, an even number of them 3-valent so the germs pair up."""
    s = g - 1
    for c in range(s + 1):
        t = s - c
        if t % 2 == 0:
            yield t, c


def multiset_automorphisms(items) -> int:
    """Permutations of equal items that fix a multiset: the product of m!
    over the multiplicities m (parallel edges, identical quotient edges)."""
    out = 1
    for m in Counter(items).values():
        out *= factorial(m)
    return out


def vertex_automorphisms(graph: FeynmanGraph) -> list:
    """The vertex bijections (as tuples, phi[v] = image of v) that fix the
    edge multiset.  Candidates are the degree-preserving bijections, since
    any automorphism preserves degrees.
    """
    edges = graph.edges
    return [
        phi
        for phi in _degree_preserving_maps(tuple(graph.degrees()))
        if tuple(sorted(tuple(sorted((phi[u], phi[v]))) for u, v in edges)) == edges
    ]


def automorphism_count(graph: FeynmanGraph) -> int:
    """Order of the multigraph automorphism group: the vertex automorphisms
    times the permutations of parallel edges and the 2 half-edge swaps of
    each loop."""
    vertex_maps = len(vertex_automorphisms(graph))
    return vertex_maps * 2 ** graph.loop_count() * multiset_automorphisms(graph.edges)


@lru_cache(maxsize=None)
def _degree_preserving_maps(degrees: tuple) -> tuple:
    """All vertex bijections preserving the degree function."""
    by_degree = {}
    for v, dv in enumerate(degrees):
        by_degree.setdefault(dv, []).append(v)
    blocks = list(by_degree.values())
    maps = []

    def rec(i, current):
        if i == len(blocks):
            maps.append(tuple(current[v] for v in range(len(degrees))))
            return
        block = blocks[i]
        for perm in permutations(block):
            for v, w in zip(block, perm):
                current[v] = w
            rec(i + 1, current)

    rec(0, [None] * len(degrees))
    return tuple(maps)


def canonical_form(graph: FeynmanGraph) -> tuple:
    """Lexicographically minimal edge tuple over degree-preserving bijections."""
    best = None
    for phi in _degree_preserving_maps(tuple(graph.degrees())):
        cand = tuple(sorted(tuple(sorted((phi[u], phi[v]))) for u, v in graph.edges))
        if best is None or cand < best:
            best = cand
    return best


@lru_cache(maxsize=None)
def edge_tree(three_valent: int, two_valent: int) -> tuple:
    """The enumeration tree of every connected multigraph on the positions
    0..s-1 with `three_valent` vertices of valence 3 and `two_valent` of
    valence 2, each edge multiset once: one (valences, nodes) root per
    choice of the 3-valent positions.

    The least vertex v with open valence takes the next edge; its partner
    u is a later open vertex, or v itself (a loop) when v is the one
    position (module docstring), never smaller than the partner of the
    edge v took before.  So a multiset is built in one way only, in sorted
    edge order, and needs no canonical form.  A node is
    (v, u, open ends left at v, at u, parallel to the edge before,
    children), and the path from its root spells the first edges of every
    graph below it.  Only subtrees that end in a connected graph are kept,
    so every node has a leaf below it, and the leaves are the nodes
    without children.  Cached per profile.
    """
    if three_valent < 0 or two_valent < 0 or three_valent + two_valent < 1:
        raise ValueError("need a positive number of vertices")
    total = 3 * three_valent + 2 * two_valent
    if total % 2:
        raise ValueError(
            "degree sum %d is odd; no graph has %d 3-valent and %d 2-valent "
            "vertices" % (total, three_valent, two_valent)
        )
    s = three_valent + two_valent
    chosen = []

    def rec(v, floor):
        """The nodes below the edges in `chosen`, () at a connected leaf,
        None when no connected graph lies below."""
        while v < s and remaining[v] == 0:
            v, floor = v + 1, v + 1
        if v == s:
            return () if connected(s, chosen) else None
        nodes = []
        for u in range(max(floor, v + (s > 1)), s):
            if remaining[u] < 1 + (u == v):
                continue
            parallel = bool(chosen) and chosen[-1] == (v, u)
            remaining[v] -= 1
            remaining[u] -= 1
            chosen.append((v, u))
            children = rec(v, u)
            if children is not None:
                nodes.append((v, u, remaining[v], remaining[u], parallel, children))
            chosen.pop()
            remaining[v] += 1
            remaining[u] += 1
        return tuple(nodes) or None

    roots = []
    for placed in combinations(range(s), three_valent):
        valences = tuple(3 if v in placed else 2 for v in range(s))
        remaining = list(valences)
        nodes = rec(0, 0)
        if nodes:
            roots.append((valences, nodes))
    return tuple(roots)


def walk_tree(three_valent: int, two_valent: int, start, step, leaf) -> None:
    """Walk ``edge_tree`` depth first from the state `start` at each root.

    At each node, ``step(state, valences, v, u, left_v, left_u, parallel)``
    turns the state of the path above into the state of the path through
    the node, once per edge prefix; a falsy state cuts the subtree below.
    At a leaf, ``leaf(state, valences, edges)`` receives the graph's sorted
    edge pairs."""
    path = []

    def descend(nodes, state, valences):
        for v, u, left_v, left_u, parallel, children in nodes:
            below = step(state, valences, v, u, left_v, left_u, parallel)
            if not below:
                continue
            path.append((v, u))
            if children:
                descend(children, below, valences)
            else:
                leaf(below, valences, tuple(path))
            path.pop()

    for valences, nodes in edge_tree(three_valent, two_valent):
        descend(nodes, start, valences)


@lru_cache(maxsize=None)
def labelled_graphs(three_valent: int, two_valent: int) -> tuple:
    """The leaves of ``edge_tree`` as FeynmanGraphs, in walk order, cached
    per profile like the tree."""
    s = three_valent + two_valent
    out = []
    walk_tree(three_valent, two_valent, True, lambda *_edge: True,
              lambda _state, _valences, edges: out.append(FeynmanGraph(s, edges)))
    return tuple(out)


def enumerate_graphs(three_valent: int, two_valent: int) -> list:
    """One GraphClass per isomorphism type of connected multigraph whose
    degree sequence has exactly `three_valent` vertices of valence 3 and
    `two_valent` of valence 2: the canonical forms of the labelled graphs
    whose 3-valent vertices get the low labels."""
    target = [3] * three_valent + [2] * two_valent
    labelled = labelled_graphs(three_valent, two_valent)
    found = {}
    for graph in (g for g in labelled if g.degrees() == target):
        canon = canonical_form(graph)
        if canon not in found:
            rep = FeynmanGraph(len(target), canon)
            found[canon] = GraphClass(rep, automorphism_count(rep))
    return [found[c] for c in sorted(found)]
