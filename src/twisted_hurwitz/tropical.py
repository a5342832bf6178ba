"""Tropical covers of the circle with marked branch points, via quotients.

The target is a circle carrying branch points p_1 < ... < p_{g-1} (g >= 2)
and a base point p_0 on the arc between p_{g-1} and p_1.  A quotient cover
of degree d has exactly one vertex over each branch point, of valence 3 or
valence 2 (a 2-valent vertex is the image of an involution-fixed 4-valent
vertex of the double cover upstairs; both its germs carry the same weight).
Every edge is oriented by the covering map — it winds forward around the
circle — and is recorded as a tuple

    (i, j, k, w):  leaves the vertex over p_{i+1}, crosses p_0 exactly k
                   times, arrives at the vertex over p_{j+1}, weight w >= 1.

Positions are 0-based in memory.  Geometry forces k >= 1 when i >= j (the
path must pass p_0 to reach an earlier position, and loops wrap fully),
while i < j allows k = 0.  The degree is d = sum over edges of w*k (the
total weight over p_0), balancing holds at every vertex (incoming germ
weights = outgoing germ weights), and the cover is connected.  Two covers
are the same iff their edge multisets agree — positions are pinned, so
covers differing by which branch point a vertex sits over are distinct.

The quotients are built from graphs rather than searched edge by edge:
every connected multigraph on the positions with one 2- or 3-valent
vertex per position, from graphs.labelled_graphs (the list the graph sum
integrates over), is decorated balanced flow first, crossings after.  The
flow gives each edge an orientation and a weight w <= d; the last edge at
a vertex must balance it, so its orientation and weight are read from the
balance rather than searched (a loop moves no weight and tries every w),
and a backward edge's weight is charged against d, as its k is at least
1.  Only then are the crossing counts k placed under sum(w*k) = d, so
the balance is searched once per graph, not once per choice of
crossings.  Loops occur only at g = 2: a loop balances only at a lone
2-valent vertex, while at a 3-valent vertex it leaves the third germ
unbalanced.

The twisted covers upstairs are double covers with a fixed-point-free-on-
edges involution: each 3-valent vertex v doubles into (v,+) and (v,-), each
2-valent vertex lifts to a single fixed 4-valent vertex (v,o), and every
edge lifts to two copies swapped by the involution.  The only discrete
choice is a gluing sign for each edge whose endpoints are both doubled
(an e33 edge): "straight" joins + to + and - to -, "crossed" joins + to -.
The lift classes are the orbits of the group G of vertex flips and
permutations of equal edges acting on the sign vectors, and by
orbit-stabilizer (lift_classes derives the details)

    |Aut| = |G| / |orbit| * 2^{#lift pairs whose two lifts coincide}.

Each twisted cover pi is counted with multiplicity

    2^{g-1} * (1/|Aut(pi)|) * prod_{2-valent v} (omega_v - 1)
            * prod_{quotient edges} w(e).

Only 1/|Aut(pi)| depends on the lift, so the count runs quotient by
quotient: it computes the quotient's weight prod(omega_v - 1) * prod w(e)
once, drops the quotient when the weight is 0 (a weight-1 two-valent
vertex), and multiplies the weight by the quotient's sum of 1/|Aut| over
its lift classes.  The closed quotient-side formulas — the count
of lifts sum(1/|Aut(pi)|) = (2^{g'} - delta_{0c}) / (2^{c+1} |Aut(qbar)|)
and the resulting quotient multiplicity (2^{g'} - delta_{0c}) * 2^{2g'-3} *
(1/|Aut(qbar)|) * prod(omega_v - 1) * prod w(e) — are implemented as
independent cross-checks, not trusted: verify_preimage_formula recomputes
the left side from explicit lifts.

Summed over the decorations of one labelled graph G (those without a
weight-1 two-valent vertex), quotient_multiplicity equals G's term in the
graph sum: 2^{g-1} (2^{g'} - delta_{0c}) / 2^{c+1} times G's balanced
propagator coefficient over prod m!(G).  feynman.py's docstring derives
this identity, which fixes the graph sum's prefactor, and the tests check
it graph by graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import prod
from operator import xor

from .graphs import (
    connected,
    labelled_graphs,
    multiset_automorphisms,
    vertex_profiles,
)

STRAIGHT, CROSSED = 0, 1


def _germ_counts(edges, s):
    germs = [0] * s
    for i, j, _k, _w in edges:
        germs[i] += 1
        germs[j] += 1
    return germs


def _is_balanced(edges, s):
    """Incoming germ weight equals outgoing germ weight at every position."""
    inw = [0] * s
    outw = [0] * s
    for i, j, _k, w in edges:
        outw[i] += w
        inw[j] += w
    return inw == outw


def _two_valent_weights(edges, s):
    """Map position -> germ weight for the 2-valent positions."""
    germs = _germ_counts(edges, s)
    weight = {}
    for i, j, _k, w in edges:
        for v in (i, j):
            if germs[v] == 2:
                weight[v] = w  # balancing makes both germs equal
    return weight


# ---------------------------------------------------------------------------
# quotient enumeration


def _enumerate_multisets(d, g):
    """All balanced connected degree-d edge multisets with one 2- or
    3-valent vertex per position, as sorted tuples, ascending: labelled
    graphs (loops only at g = 2) x their decorations, balanced flow
    first and crossings after."""
    s = g - 1
    results = []
    for t, c in vertex_profiles(g):
        for graph in labelled_graphs(t, c, allow_loops=g == 2):
            results.extend(_decorations(graph.edges, s, d))
    return sorted(results)


def _decorations(pairs, s, d):
    """Edge multisets (i, j, k, w) over the sorted edge pairs `pairs` with
    sum of w*k equal to d, balanced at every position: balanced flow first,
    crossings after.

    The flow pass gives each edge an orientation and a weight w <= d.  A
    position's balance is checked as soon as its last incident edge is
    placed, and a closing non-loop edge takes the one orientation and
    weight that balance it (a loop moves no weight and tries every w).  A
    backward edge (i >= j) needs k >= 1, so its weight is charged against
    d, and a flow whose backward weights would exceed d is cut.  The
    crossing pass then spends what is left of d on crossings beyond those
    least ones, edge by edge; the last edge takes the remainder divided by
    its weight.  Parallel edges take non-decreasing (i, j) in the flow and
    non-decreasing (i, j, k, w) once crossed, so each multiset appears
    once."""
    m = len(pairs)
    closes = [[] for _ in pairs]
    for v, n in {v: n for n, e in enumerate(pairs) for v in e}.items():
        closes[n].append(v)
    parallel = [n > 0 and pairs[n - 1] == pairs[n] for n in range(m)]
    net = [0] * s  # outgoing minus incoming germ weight
    flow = []  # (i, j, w, least k) per edge
    chosen = []
    out = []

    def place(n, back):
        if n == m:
            cross(0, d - back)
            return
        u, v = pairs[n]
        if u != v and closes[n]:
            # the edge that closes x leaves x when more weight enters x
            x = closes[n][0]
            w = net[x]
            choices = [(x, u + v - x, -w) if w < 0 else (u + v - x, x, w)] if w else []
        else:
            choices = [(i, j, w) for i, j in {(u, v), (v, u)} for w in range(1, d + 1)]
        for i, j, w in choices:
            least = int(i >= j)
            if w > d or back + w * least > d or parallel[n] and (i, j) < flow[-1][:2]:
                continue
            net[i] += w
            net[j] -= w
            if all(net[x] == 0 for x in closes[n]):
                flow.append((i, j, w, least))
                place(n + 1, back + w * least)
                flow.pop()
            net[i] -= w
            net[j] += w

    def cross(n, spare):
        # spare: what is left of d over the least k of edges n, n+1, ...
        i, j, w, k = flow[n]
        if parallel[n] and chosen[-1][:2] == (i, j):
            floor = chosen[-1][2] + (w < chosen[-1][3])
            if floor > k:
                spare -= w * (floor - k)
                k = floor
        if n == m - 1:
            extra, rest = divmod(spare, w)
            if extra >= 0 and not rest:
                out.append(tuple(sorted(chosen + [(i, j, k + extra, w)])))
            return
        for extra in range(spare // w + 1):
            chosen.append((i, j, k + extra, w))
            cross(n + 1, spare - w * extra)
            chosen.pop()

    place(0, 0)
    return out


# ---------------------------------------------------------------------------
# explicit double covers (lifts)


def _doubled(germs, v):
    """Vertices are doubled upstairs unless they are 2-valent (those lift
    to a single involution-fixed 4-valent vertex)."""
    return germs[v] != 2


def e33_indices(edges, s):
    germs = _germ_counts(edges, s)
    return tuple(
        idx
        for idx, (i, j, _k, _w) in enumerate(edges)
        if _doubled(germs, i) and _doubled(germs, j)
    )


def lift_classes(edges, s):
    """Isomorphism classes of connected double covers over a quotient.

    Returns (classes, connected_count, assignment_count) where classes is a
    list of (signs, automorphism_count) with signs the lexicographically
    smallest gluing assignment in the class, ordered by signs.

    Lift vertices are (v,+) and (v,-) for a doubled position v and one
    (v,o) for a 2-valent one.  Flipping a set f of doubled positions swaps
    their + and - and toggles the sign of every e33 edge with exactly one
    endpoint in f (every other edge lifts to a pair that a flip only
    permutes); permuting equal quotient edges permutes their signs.  These
    form a group G of order 2^{#doubled} * prod m! over groups of m equal
    edges, and two sign vectors give isomorphic lifts iff they share a
    G-orbit.  The sorted (edge, sign) pairs of the e33 edges (the key) fix
    a vector up to the permutations, so an orbit is the set of vectors
    whose key is that of a flip of one member.  An automorphism is an
    element of G fixing the signs together with a matching of each lift
    pair onto its image: one where the pair's two lifts differ, two where
    they coincide (both endpoints 2-valent, or a crossed loop).  So by
    orbit-stabilizer |Aut| = |G| / |orbit| * 2^{#coinciding pairs}.

    Each sign vector is visited once, in ascending order: a known key
    counts it in its orbit, a new one opens an orbit with the vector as
    representative, records the keys of all its flips and tests
    connectivity, an orbit invariant like the coinciding pairs.  So the
    orbits open in ascending order of their representatives.
    """
    germs = _germ_counts(edges, s)
    e33 = e33_indices(edges, s)
    glued = [edges[x] for x in e33]
    # lift vertex numbers: (v,+) is plus[v] and (v,-) is minus[v]; (v,o) is both
    plus, minus, n = {}, {}, 0
    for v in range(s):
        if germs[v]:
            plus[v], minus[v] = n, n + _doubled(germs, v)
            n = minus[v] + 1
    doubled = [v for v in plus if plus[v] != minus[v]]
    group_order = 2 ** len(doubled) * multiset_automorphisms(edges)
    # the sign toggles of the flip sets
    toggles = {
        tuple(f[i] ^ f[j] for i, j, _k, _w in glued)
        for f in (dict(zip(doubled, bits)) for bits in iproduct((0, 1), repeat=len(doubled)))
    }

    def key(signs):
        return tuple(sorted(zip(glued, signs)))

    def lifts(signs):
        """The two lifts of every quotient edge, as lift-vertex pairs."""
        sign = dict(zip(e33, signs))
        for x, (i, j, _k, _w) in enumerate(edges):
            a, b = (minus, plus) if sign.get(x) else (plus, minus)
            yield (plus[i], a[j]), (minus[i], b[j])

    orbits = []  # [representative, size, connected]
    orbit_of = {}  # key -> its orbit
    for signs in iproduct((STRAIGHT, CROSSED), repeat=len(e33)):
        orbit = orbit_of.get(key(signs))
        if orbit is None:
            orbit = [signs, 0, connected(n, (p for pair in lifts(signs) for p in pair))]
            orbits.append(orbit)
            for t in toggles:
                orbit_of[key(map(xor, signs, t))] = orbit
        orbit[1] += 1

    classes = [
        (signs, group_order // size * 2 ** sum(sorted(p) == sorted(q) for p, q in lifts(signs)))
        for signs, size, joined in orbits
        if joined
    ]
    connected_count = sum(size for _signs, size, joined in orbits if joined)
    return classes, connected_count, 2 ** len(e33)


# ---------------------------------------------------------------------------
# covers and multiplicities


@dataclass(frozen=True)
class QuotientCover:
    """A quotient cover together with one isomorphism class of double cover.

    `edges` is the sorted multiset of (i, j, k, w) tuples.  `lift` holds the
    gluing sign (0 straight / 1 crossed) for each edge index listed by
    e33_indices(edges), lexicographically minimal in its isomorphism class.
    """

    d: int
    g: int
    edges: tuple
    lift: tuple
    lift_automorphisms: int

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(tuple(e) for e in self.edges)))
        object.__setattr__(self, "lift", tuple(self.lift))
        if self.g < 2:
            raise ValueError("quotient covers need g >= 2")
        expected = len(e33_indices(self.edges, self.positions))
        if len(self.lift) != expected:
            raise ValueError(
                "lift has %d signs, expected %d" % (len(self.lift), expected)
            )

    @property
    def positions(self):
        return self.g - 1

    def valences(self):
        return tuple(_germ_counts(self.edges, self.positions))

    @property
    def four_valent_count(self):
        """Number of 4-valent vertices upstairs = 2-valent quotient positions."""
        return sum(1 for x in self.valences() if x == 2)

    @property
    def quotient_genus(self):
        return len(self.edges) - self.positions + 1

    def two_valent_weights(self):
        return _two_valent_weights(self.edges, self.positions)

    def degree_over_base(self):
        return sum(w * k for _i, _j, k, w in self.edges)


@dataclass(frozen=True)
class CoverMultiplicity:
    value: Fraction
    four_valent_count: int
    quotient_genus: int


def _weight(edges, g):
    """The lift-independent factor prod_{2-valent v}(omega_v - 1) * prod
    w(e) of a quotient's multiplicity, after checking the structural genus
    2g' = g - c + 1 (it holds when every position is 2- or 3-valent)."""
    s = g - 1
    omegas = _two_valent_weights(edges, s).values()
    gp = len(edges) - s + 1
    if 2 * gp != g - len(omegas) + 1:
        raise ValueError(
            "structural genus %d does not satisfy 2g' = g - c + 1 (g=%d, c=%d)"
            % (gp, g, len(omegas))
        )
    return prod(wv - 1 for wv in omegas) * prod(w for _i, _j, _k, w in edges)


def cover_multiplicity(cover: QuotientCover) -> CoverMultiplicity:
    """Multiplicity of one twisted cover (quotient + lift class)."""
    value = 2 ** (cover.g - 1) * _weight(cover.edges, cover.g)
    return CoverMultiplicity(
        value=Fraction(value, cover.lift_automorphisms),
        four_valent_count=cover.four_valent_count,
        quotient_genus=cover.quotient_genus,
    )


def quotient_multiplicity(edges, g) -> Fraction:
    """Closed-form multiplicity of a whole quotient cover (all lifts at
    once): (2^{g'}-delta_{0c}) * 2^{2g'-3} / |Aut(qbar)| * prod(omega_v - 1)
    * prod w(e).  Used as a cross-check against summing cover_multiplicity
    over the lift classes."""
    s = g - 1
    edges = tuple(sorted(edges))
    germs = _germ_counts(edges, s)
    c = sum(1 for x in germs if x == 2)
    gp = len(edges) - s + 1
    lead = 2**gp - (1 if c == 0 else 0)
    scale = Fraction(2) ** (2 * gp - 3)
    return lead * scale * Fraction(_weight(edges, g), multiset_automorphisms(edges))


def _weighted_quotients(d, g):
    """(edges, weight, classes) for each quotient of nonzero weight, edges
    ascending: weight is _weight(edges, g) and classes is
    lift_classes(edges, g - 1)[0], ordered by signs."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    if g < 2:
        raise ValueError("the tropical pipeline needs g >= 2 (one branch point)")
    for edges in _enumerate_multisets(d, g):
        weight = _weight(edges, g)
        if weight:
            yield edges, weight, lift_classes(edges, g - 1)[0]


def enumerate_quotient_covers(d: int, g: int) -> list:
    """All twisted covers (quotient + lift class) of degree d, genus g,
    with nonzero multiplicity, sorted by (edges, lift)."""
    return [
        QuotientCover(d=d, g=g, edges=edges, lift=signs, lift_automorphisms=aut)
        for edges, _, classes in _weighted_quotients(d, g)
        for signs, aut in classes
    ]


def count_tropical(d: int, g: int) -> Fraction:
    """Degree-d genus-g twisted count via the tropical pipeline: each
    quotient's weight times its sum of 1/|Aut| over the lift classes."""
    total = Fraction(0)
    for _edges, weight, classes in _weighted_quotients(d, g):
        total += weight * sum(Fraction(1, aut) for _signs, aut in classes)
    return 2 ** (g - 1) * total


def verify_preimage_formula(cover: QuotientCover) -> bool:
    """Recompute sum over lift classes of 1/|Aut| from explicit double
    covers and compare with (2^{g'} - delta_{0c}) / (2^{c+1} |Aut(qbar)|)."""
    details = preimage_details(cover)
    return details["lift_sum"] == details["closed_form"]


def preimage_details(cover: QuotientCover) -> dict:
    edges = cover.edges
    s = cover.positions
    if len(edges) > 12:
        raise ValueError("cover too large for explicit lift enumeration (> 12 edges)")
    classes, connected, total = lift_classes(edges, s)
    germs = _germ_counts(edges, s)
    c = sum(1 for x in germs if x == 2)
    gp = len(edges) - s + 1
    lift_sum = sum((Fraction(1, aut) for _signs, aut in classes), Fraction(0))
    closed = Fraction(
        2**gp - (1 if c == 0 else 0), 2 ** (c + 1) * multiset_automorphisms(edges)
    )
    return {
        "lift_sum": lift_sum,
        "closed_form": closed,
        "classes": classes,
        "connected_assignments": connected,
        "total_assignments": total,
        "four_valent_count": c,
        "quotient_genus": gp,
    }


# ---------------------------------------------------------------------------
# export


def _sign_by_edge(cover: QuotientCover) -> dict:
    """Map edge index -> gluing sign, for the e33 edges."""
    return dict(zip(e33_indices(cover.edges, cover.positions), cover.lift))


def cover_record(cover: QuotientCover) -> dict:
    """JSON-ready description of one twisted cover."""
    sign_by_edge = _sign_by_edge(cover)
    mult = cover_multiplicity(cover)
    edges = []
    for idx, (i, j, k, w) in enumerate(cover.edges):
        sign = sign_by_edge.get(idx)
        edges.append(
            {
                "from": i + 1,
                "to": j + 1,
                "crossings": k,
                "weight": w,
                "lift": None if sign is None else ("crossed" if sign else "straight"),
            }
        )
    return {
        "degree": cover.d,
        "genus": cover.g,
        "positions": cover.positions,
        "edges": edges,
        "four_valent_count": mult.four_valent_count,
        "quotient_genus": mult.quotient_genus,
        "lift_automorphisms": cover.lift_automorphisms,
        "multiplicity": {
            "numerator": str(mult.value.numerator),
            "denominator": str(mult.value.denominator),
        },
    }


def cover_to_json(covers) -> str:
    return json.dumps([cover_record(cv) for cv in covers], indent=2)


def cover_to_dot(cover: QuotientCover, name="cover") -> str:
    """DOT rendering; edges are oriented by the covering map (forward
    around the circle), vertices carry their branch-point position."""
    sign_by_edge = _sign_by_edge(cover)
    germs = _germ_counts(cover.edges, cover.positions)
    lines = ["digraph %s {" % name]
    for v in range(cover.positions):
        lines.append(
            '  v%d [label="p%d (%d-valent)"];' % (v, v + 1, germs[v])
        )
    for idx, (i, j, k, w) in enumerate(cover.edges):
        label = "w=%d k=%d" % (w, k)
        if idx in sign_by_edge:
            label += " lift=%s" % ("crossed" if sign_by_edge[idx] else "straight")
        lines.append('  v%d -> v%d [label="%s"];' % (i, j, label))
    lines.append("}")
    return "\n".join(lines)
