"""Connected multigraphs with 2- and 3-valent vertices.

These are the combinatorial types underlying quotient covers: vertices of
valence 3 (simple branch vertices) and valence 2 (images of 4-valent
vertices upstairs).  Both graph pipelines run over ``labelled_graphs``:
every such graph on the positions 0..s-1, for every placement of the
valences, each edge multiset once.  ``enumerate_graphs`` gives isomorphism
classes (3-valent vertices first) by a minimal canonical form over the
degree-preserving vertex bijections; no counting path needs them.

Automorphism counts are multigraph automorphisms: vertex bijections fixing
the edge multiset, times permutations of parallel edges, times a factor 2
per loop (the two half-edges of a loop may be swapped).  This is the group
the cover-multiplicity formulas divide by.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial


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


@dataclass(frozen=True)
class FeynmanGraph:
    """Multigraph on vertices 0..vertex_count-1; edges are unordered pairs.

    ``edges`` is kept sorted with each pair (u, v) satisfying u <= v, so two
    equal graphs compare equal structurally.  A pair with u == v is a loop
    and contributes 2 to the valence of u.
    """

    vertex_count: int
    edges: tuple

    def __post_init__(self):
        norm = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        for u, v in norm:
            if not (0 <= u <= v < self.vertex_count):
                raise ValueError("edge (%r, %r) out of range" % (u, v))
        object.__setattr__(self, "edges", norm)

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


@dataclass(frozen=True)
class GraphClass:
    graph: FeynmanGraph
    automorphism_count: int


def vertex_profiles(g: int):
    """(three_valent, two_valent) vertex counts compatible with genus g:
    g - 1 vertices, an even number of them 3-valent so the germs pair up."""
    s = g - 1
    for c in range(s + 1):
        t = s - c
        if t % 2 == 0:
            yield t, c


def genus(graph: FeynmanGraph) -> int:
    """First Betti number r - s + 1 of a connected graph."""
    if not graph.is_connected():
        raise ValueError("genus is defined here for connected graphs only")
    return len(graph.edges) - graph.vertex_count + 1


def relabel(graph: FeynmanGraph, mapping) -> FeynmanGraph:
    """Apply a vertex bijection (mapping[v] = new name)."""
    return FeynmanGraph(
        graph.vertex_count,
        tuple((mapping[u], mapping[v]) for u, v in graph.edges),
    )


def multiset_automorphisms(items) -> int:
    """Permutations of equal items that fix a multiset: the product of m!
    over the multiplicities m (parallel edges, identical quotient edges)."""
    out = 1
    for m in Counter(items).values():
        out *= factorial(m)
    return out


def vertex_automorphisms(graph: FeynmanGraph, degree_classes=None) -> list:
    """The vertex bijections (as tuples, phi[v] = image of v) that fix the
    edge multiset.

    Candidates are the degree-preserving bijections, optionally passed in
    precomputed as ``degree_classes`` (equivalent, since any automorphism
    preserves degrees).
    """
    maps = degree_classes or _degree_preserving_maps(graph.degrees())
    edges = graph.edges
    return [
        phi
        for phi in maps
        if tuple(sorted(tuple(sorted((phi[u], phi[v]))) for u, v in edges)) == edges
    ]


def automorphism_count(graph: FeynmanGraph, degree_classes=None) -> int:
    """Order of the multigraph automorphism group: the vertex automorphisms
    times the permutations of parallel edges and the 2 half-edge swaps of
    each loop."""
    vertex_maps = len(vertex_automorphisms(graph, degree_classes))
    return vertex_maps * 2 ** graph.loop_count() * multiset_automorphisms(graph.edges)


def _degree_preserving_maps(degrees):
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
    return maps


def canonical_form(graph: FeynmanGraph, maps=None) -> tuple:
    """Lexicographically minimal edge tuple over degree-preserving bijections."""
    maps = maps or _degree_preserving_maps(graph.degrees())
    best = None
    for phi in maps:
        cand = tuple(sorted(tuple(sorted((phi[u], phi[v]))) for u, v in graph.edges))
        if best is None or cand < best:
            best = cand
    return best


@lru_cache(maxsize=None)
def labelled_graphs(three_valent: int, two_valent: int, allow_loops: bool = False) -> tuple:
    """Every connected multigraph on the positions 0..s-1 with
    `three_valent` vertices of valence 3 and `two_valent` of valence 2, for
    every choice of the 3-valent positions, each edge multiset once.

    The least vertex with open valence takes the next edge; its partner is
    itself (a loop) or a later open vertex, never smaller than the partner
    of the edge it took before.  So a multiset is built in one way only,
    vertex by vertex in sorted edge order, and needs no canonical form.
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
    out = []
    chosen = []

    def rec(v, floor):
        while v < s and remaining[v] == 0:
            v, floor = v + 1, v + 1
        if v == s:
            if connected(s, chosen):
                out.append(FeynmanGraph(s, tuple(chosen)))
            return
        for u in range(floor, s):
            if remaining[u] < 1 + (u == v) or (u == v and not allow_loops):
                continue
            remaining[v] -= 1
            remaining[u] -= 1
            chosen.append((v, u))
            rec(v, u)
            chosen.pop()
            remaining[v] += 1
            remaining[u] += 1

    for placed in combinations(range(s), three_valent):
        remaining = [3 if v in placed else 2 for v in range(s)]
        rec(0, 0)
    return tuple(out)


def enumerate_graphs(three_valent: int, two_valent: int, allow_loops: bool = False) -> list:
    """One GraphClass per isomorphism type of connected multigraph whose
    degree sequence has exactly `three_valent` vertices of valence 3 and
    `two_valent` of valence 2: the canonical forms of the labelled graphs
    whose 3-valent vertices get the low labels."""
    target = [3] * three_valent + [2] * two_valent
    labelled = labelled_graphs(three_valent, two_valent, allow_loops)
    maps = _degree_preserving_maps(target)
    found = {}
    for graph in (g for g in labelled if g.degrees() == target):
        canon = canonical_form(graph, maps)
        if canon not in found:
            rep = FeynmanGraph(len(target), canon)
            found[canon] = GraphClass(rep, automorphism_count(rep, maps))
    return [found[c] for c in sorted(found)]


def to_dot(graph: FeynmanGraph, edge_labels=None, title="graph") -> str:
    """DOT rendering with vertex labels x1..xs and edge labels q1..qr.

    edge_labels, if given, maps edge index -> extra annotation appended to
    the q-label (used for weight/crossing decorations on covers).
    """
    lines = ["graph %s {" % title]
    for v in range(graph.vertex_count):
        lines.append('  v%d [label="x%d"];' % (v, v + 1))
    for idx, (u, v) in enumerate(graph.edges):
        label = "q%d" % (idx + 1)
        if edge_labels and idx in edge_labels:
            label += " " + edge_labels[idx]
        lines.append('  v%d -- v%d [label="%s"];' % (u, v, label))
    lines.append("}")
    return "\n".join(lines)
