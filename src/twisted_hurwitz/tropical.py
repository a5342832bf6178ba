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
integrates over), has each edge given an orientation, a weight w <= d and
a crossing count k under the budget sum(w*k) = d.  Balance at a vertex is
checked as soon as its last incident edge is decorated.  Loops occur
only at g = 2: a loop balances only at a lone 2-valent vertex, while at a
3-valent vertex it leaves the third germ unbalanced.

The twisted covers upstairs are double covers with a fixed-point-free-on-
edges involution: each 3-valent vertex v doubles into (v,+) and (v,-), each
2-valent vertex lifts to a single fixed 4-valent vertex (v,o), and every
edge lifts to two copies swapped by the involution.  The only discrete
choice is a gluing sign for each edge whose endpoints are both doubled
(an e33 edge): "straight" joins + to + and - to -, "crossed" joins + to -.
The lift classes are found on the sign vectors themselves (lift_classes
derives the details).  Flipping the + and - lifts of a set f of doubled
positions toggles the signs of the e33 edges with one endpoint in f and
only permutes the lifts of every other edge, so the class key is the
minimum over all f of the sorted (edge, sign) pairs of the e33 edges, and

    |Aut| = #{f fixing the key} * prod n! over groups of n equal
            (edge, sign) pairs and of n equal other edges
            * 2^{#edges with both endpoints 2-valent}.

Each twisted cover pi is counted with multiplicity

    2^{g-1} * (1/|Aut(pi)|) * prod_{2-valent v} (omega_v - 1)
            * prod_{quotient edges} w(e),

so quotients with a weight-1 two-valent vertex contribute nothing and are
dropped by the enumerator.  The closed quotient-side formulas — the count
of lifts sum(1/|Aut(pi)|) = (2^{g'} - delta_{0c}) / (2^{c+1} |Aut(qbar)|)
and the resulting quotient multiplicity (2^{g'} - delta_{0c}) * 2^{2g'-3} *
(1/|Aut(qbar)|) * prod(omega_v - 1) * prod w(e) — are implemented as
independent cross-checks, not trusted: verify_preimage_formula recomputes
the left side from explicit lifts.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from operator import xor

from .graphs import (
    FeynmanGraph,
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
    graphs x (orientation, weight, crossings) per edge, with balance
    checked at each vertex's last edge and loops only at g = 2."""
    s = g - 1
    results = []
    for t, c in vertex_profiles(g):
        for graph in labelled_graphs(t, c, allow_loops=g == 2):
            results.extend(_decorations(graph.edges, s, d))
    return sorted(results)


def _decorations(pairs, s, d):
    """Edge multisets (i, j, k, w) over the sorted edge pairs `pairs` with
    sum of w*k equal to d, balanced at every position.  A position's balance
    is checked as soon as its last incident edge is decorated; parallel
    edges take non-decreasing decorations so each multiset appears once."""
    closes = [[] for _ in pairs]
    for v, n in {v: n for n, e in enumerate(pairs) for v in e}.items():
        closes[n].append(v)
    net = [0] * s  # outgoing minus incoming germ weight
    chosen = []
    out = []

    def rec(n, budget):
        if n == len(pairs):
            if budget == 0:
                out.append(tuple(sorted(chosen)))
            return
        u, v = pairs[n]
        floor = chosen[-1] if n and pairs[n - 1] == pairs[n] else ()
        for i, j in {(u, v), (v, u)}:  # a loop has one orientation
            for w in range(1, d + 1):
                for k in range(0 if i < j else 1, budget // w + 1):
                    e = (i, j, k, w)
                    if e < floor:
                        continue
                    net[i] += w
                    net[j] -= w
                    if all(net[x] == 0 for x in closes[n]):
                        chosen.append(e)
                        rec(n + 1, budget - w * k)
                        chosen.pop()
                    net[i] -= w
                    net[j] += w

    rec(0, d)
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
    endpoint in f; every other edge lifts to a pair that a flip only
    permutes.  Two sign vectors therefore give isomorphic lifts iff some f
    carries the multiset of (edge, sign) pairs over the e33 edges of one to
    that of the other: the class key is the minimum of that sorted tuple
    over all flip sets.  An automorphism is a flip f fixing the key
    together with an involution-equivariant edge matching, which sends each
    lift pair to a lift pair of an equal edge carrying the flipped sign.
    Where the pair's two lifts differ, exactly one of its two ways of
    mapping onto the target pair fits; where they coincide (both endpoints
    2-valent, or a crossed loop) both do.  So |Aut| is the number of flip
    sets fixing the key, times n! per group of n equal (edge, sign) pairs
    and per group of n equal other edges, times 2 per coinciding pair.
    """
    germs = _germ_counts(edges, s)
    e33 = e33_indices(edges, s)
    glued = [edges[x] for x in e33]
    rest = multiset_automorphisms(e for x, e in enumerate(edges) if x not in e33)
    # lift vertex numbers: (v,+) is plus[v] and (v,-) is minus[v]; (v,o) is both
    plus, minus, n = {}, {}, 0
    for v in range(s):
        if germs[v]:
            plus[v], minus[v] = n, n + _doubled(germs, v)
            n = minus[v] + 1
    doubled = [v for v in plus if plus[v] != minus[v]]
    flips = [
        {v for v, b in zip(doubled, bits) if b}
        for bits in iproduct((0, 1), repeat=len(doubled))
    ]
    # the sign toggles of the flip sets, with how many flip sets give each
    toggles = Counter(tuple((i in f) ^ (j in f) for i, j, _k, _w in glued) for f in flips)

    def key(signs):
        return tuple(sorted(zip(glued, signs)))

    def lifts(signs):
        """The two lifts of every quotient edge, as lift-vertex pairs."""
        sign = dict(zip(e33, signs))
        for x, (i, j, _k, _w) in enumerate(edges):
            a, b = (minus, plus) if sign.get(x) else (plus, minus)
            yield (plus[i], a[j]), (minus[i], b[j])

    seen = {}
    connected_count = 0
    for signs in iproduct((STRAIGHT, CROSSED), repeat=len(e33)):
        if not connected(n, (p for pair in lifts(signs) for p in pair)):
            continue
        connected_count += 1
        keys = {t: key(map(xor, signs, t)) for t in toggles}
        canon = min(keys.values())
        if canon not in seen:
            own = key(signs)
            aut = sum(m for t, m in toggles.items() if keys[t] == own)
            aut *= multiset_automorphisms(own) * rest
            aut *= 2 ** sum(sorted(p) == sorted(q) for p, q in lifts(signs))
            seen[canon] = (signs, aut)

    classes = sorted(seen.values())
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

    def graph(self) -> FeynmanGraph:
        return FeynmanGraph(
            self.positions, tuple((min(i, j), max(i, j)) for i, j, _k, _w in self.edges)
        )

    def degree_over_base(self):
        return sum(w * k for _i, _j, k, w in self.edges)


@dataclass(frozen=True)
class CoverMultiplicity:
    value: Fraction
    four_valent_count: int
    quotient_genus: int


def cover_multiplicity(cover: QuotientCover, g=None) -> CoverMultiplicity:
    """Multiplicity of one twisted cover (quotient + lift class)."""
    if g is not None and g != cover.g:
        raise ValueError("cover was enumerated for g=%d, asked for g=%d" % (cover.g, g))
    g = cover.g
    c = cover.four_valent_count
    gp = cover.quotient_genus
    if 2 * gp != g - c + 1:
        raise ValueError(
            "structural genus %d does not satisfy 2g' = g - c + 1 (g=%d, c=%d)"
            % (gp, g, c)
        )
    value = Fraction(2 ** (g - 1), cover.lift_automorphisms)
    for wv in cover.two_valent_weights().values():
        value *= wv - 1
    for _i, _j, _k, w in cover.edges:
        value *= w
    return CoverMultiplicity(value=value, four_valent_count=c, quotient_genus=gp)


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
    scale = (
        Fraction(2 ** (2 * gp - 3)) if 2 * gp >= 3 else Fraction(1, 2 ** (3 - 2 * gp))
    )
    value = lead * scale * Fraction(1, multiset_automorphisms(edges))
    for wv in _two_valent_weights(edges, s).values():
        value *= wv - 1
    for _i, _j, _k, w in edges:
        value *= w
    return value


def enumerate_quotient_covers(d: int, g: int) -> list:
    """All twisted covers (quotient + lift class) of degree d, genus g,
    with nonzero multiplicity, sorted by (edges, lift)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    if g < 2:
        raise ValueError("the tropical pipeline needs g >= 2 (one branch point)")
    s = g - 1
    out = []
    for edges in _enumerate_multisets(d, g):
        if any(w == 1 for w in _two_valent_weights(edges, s).values()):
            continue  # multiplicity factor (omega_v - 1) vanishes
        classes, _conn, _total = lift_classes(edges, s)
        for signs, aut in classes:
            out.append(
                QuotientCover(
                    d=d, g=g, edges=edges, lift=signs, lift_automorphisms=aut
                )
            )
    return sorted(out, key=lambda cv: (cv.edges, cv.lift))


def count_tropical(d: int, g: int) -> Fraction:
    """Degree-d genus-g twisted count via the tropical pipeline."""
    total = Fraction(0)
    for cover in enumerate_quotient_covers(d, g):
        total += cover_multiplicity(cover).value
    return total


def verify_preimage_formula(cover: QuotientCover, g=None) -> bool:
    """Recompute sum over lift classes of 1/|Aut| from explicit double
    covers and compare with (2^{g'} - delta_{0c}) / (2^{c+1} |Aut(qbar)|)."""
    details = preimage_details(cover, g)
    return details["lift_sum"] == details["closed_form"]


def preimage_details(cover: QuotientCover, g=None) -> dict:
    if g is not None and g != cover.g:
        raise ValueError("cover was enumerated for g=%d, asked for g=%d" % (cover.g, g))
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
