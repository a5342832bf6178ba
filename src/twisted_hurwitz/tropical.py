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
vertex per position, a leaf of graphs.edge_tree (the tree the graph sum
walks too), is decorated balanced flow first, crossings after.  The
flow gives each edge an orientation and a weight w <= d; the last edge at
a vertex must balance it, so its orientation and weight are read from the
balance rather than searched (a loop moves no weight and tries every w),
and a backward edge's weight is charged against d, as its k is at least
1.  Only then are the crossing counts k placed under sum(w*k) = d, so
the balance is not searched again for each choice of crossings.  Nor is
it searched again for each graph: the partial flows over a path of the
tree are formed once, at the node that ends it, by one _extend step
from those of its parent, and serve every graph below; a node with no
partial flow cuts its subtree.  The balance is searched once per edge
prefix.  The graphs module says why the only loop is the one at g = 2.

The twisted covers upstairs are double covers with a fixed-point-free-on-
edges involution: each 3-valent vertex v doubles into (v,+) and (v,-), each
2-valent vertex lifts to a single fixed 4-valent vertex (v,o), and every
edge lifts to two copies swapped by the involution.  The only discrete
choice is a gluing sign for each edge whose endpoints are both doubled
(an e33 edge): "straight" joins + to + and - to -, "crossed" joins + to -.
The lift classes are the orbits of the group G of vertex flips (XORs of
the sign bitmask) and permutations of equal edges acting on the sign
vectors; by orbit-stabilizer, |Aut| = |G| / |orbit| * 2^{cp}, where cp
counts the lift pairs whose two lifts coincide (lift_classes walks them).

Each twisted cover pi is counted with multiplicity

    2^{g-1} * (1/|Aut(pi)|) * prod_{2-valent v} (omega_v - 1)
            * prod_{quotient edges} w(e).

Only 1/|Aut(pi)| depends on the lift, so the count runs quotient by
quotient, graph by graph.  A quotient with a weight-1 two-valent vertex
weighs 0, and both germs of a two-valent vertex carry its weight, so the
count's flow pass refuses weight 1 on every edge at a two-valent position
and never builds such a quotient or its crossings.  Each quotient that is
built adds its weight prod(omega_v - 1) * prod w(e) over prod m!(q).  G
has order 2^{#doubled} * prod m!(q), m running over the groups of equal
decorated edges of the quotient q, so summed over q's connected orbits O

    sum 1/|Aut| = sum_O |O| / (|G| 2^{cp}) = N / (2^{#doubled} prod m!(q)),

N summing 2^{-cp} over the connected sign vectors.  The doubled positions,
the e33 edges and each sign vector's lift as an undirected graph, hence
its connectivity and cp, depend only on which positions each edge joins.
So prod m!(q) * sum 1/|Aut| = N / 2^{#doubled} is one number per labelled
graph, whatever the decoration and whatever d: count_tropical reads it
from the lifts of the graph's own edges, each taken as (u, v, 0, 1),
classified once per graph per process, and multiplies each graph's sum by
it.  That sum is kept in integers: the weight depends only on the flow
and is formed once per flow, and equal decorated edges are equal edges
of the graph, so prod m!(q) divides the graph's own prod m!, M, and each
quotient adds the integer M / prod m!(q) times its flow's weight.  One
Fraction, the integer sum over M, is formed per graph.
enumerate_quotient_covers decorates without the cut, drops the weight-0
quotients afterwards and classifies every quotient; it is the export and
the unpruned reference.

The closed quotient-side formulas — the lift sum sum(1/|Aut(pi)|) =
(2^{g'} - delta_{0c}) / (2^{c+1} |Aut(qbar)|), and the quotient
multiplicity 2^{g-1} * prod(omega_v - 1) * prod w(e) times that sum — are
implemented as independent cross-checks, not trusted:
verify_preimage_formula recomputes the lift sum from explicit lifts.

Summed over the decorations of one labelled graph G (those without a
weight-1 two-valent vertex), quotient_multiplicity equals G's term in the
graph sum: 2^{g-1} (2^{g'} - delta_{0c}) / 2^{c+1} times G's balanced
propagator coefficient over prod m!(G).  feynman.py's docstring derives
this identity, which fixes the graph sum's prefactor, and the tests check
it graph by graph.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache, partial
from math import prod

from .graphs import connected, multiset_automorphisms, vertex_profiles, walk_tree
from .record import Record

STRAIGHT, CROSSED = 0, 1


class _Shape(Record):
    """A quotient's germs at each position (valences), its 2-valent
    positions' germ weights omega_v (omegas), the indices of its edges
    whose endpoints are both doubled (e33) and g' = #edges - #positions + 1
    (genus); c = len(omegas)."""

    __slots__ = _fields = ("valences", "omegas", "e33", "genus")


def _shape(edges, s):
    """The valences, 2-valent weights, e33 edges and genus of a quotient.
    A 2-valent position lifts to one involution-fixed 4-valent vertex, and
    balancing makes both its germs carry the same weight; every other
    position is doubled upstairs."""
    valences = [0] * s
    for i, j, _k, _w in edges:
        valences[i] += 1
        valences[j] += 1
    omegas = {v: w for i, j, _k, w in edges for v in (i, j) if valences[v] == 2}
    e33 = tuple(x for x, (i, j, _k, _w) in enumerate(edges) if valences[i] != 2 != valences[j])
    return _Shape(tuple(valences), omegas, e33, len(edges) - s + 1)


def _is_balanced(edges, s):
    """Incoming germ weight equals outgoing germ weight at every position."""
    inw = [0] * s
    outw = [0] * s
    for i, j, _k, w in edges:
        outw[i] += w
        inw[j] += w
    return inw == outw


# ---------------------------------------------------------------------------
# quotient enumeration


def _enumerate_multisets(d, g):
    """All balanced connected degree-d edge multisets with one 2- or
    3-valent vertex per position, as sorted tuples, ascending: the leaves
    of graphs.edge_tree x their decorations, balanced flow first and
    crossings after, without the count's cut."""
    found = []
    for t, c in vertex_profiles(g):
        walk_tree(t, c, [((0,) * (g - 1), d, ())], partial(_extend, d, False),
                  lambda flows, _valences, _pairs: found.extend(_quotients(flows)))
    return sorted(found)


def _quotients(flows):
    """The edge multisets of every flow in `flows`, as sorted tuples."""
    return [edges for _net, spare, flow in flows for edges, _runs in _crossings(flow, spare)]


def _extend(d, cut, level, valences, u, v, left_u, left_v, parallel):
    """The partial flows of `level` followed by the edge (u, v), a step of
    ``graphs.walk_tree``: each as (net, spare, flow), with flow the
    (i, j, w, least k) of every edge so far and spare what is left of d
    over the least k.  With `cut`, an edge at a two-valent position takes
    w >= 2 (the count's cut).

    The flow gives each edge an orientation and a weight w <= d.  A
    position's balance is checked when its last edge is placed (no open
    end left), and a closing non-loop edge takes the one orientation and
    weight that balance it (a loop, placed only at the lone position of
    g = 2, moves no weight and tries every w).  A
    backward edge (i >= j) needs k >= 1, so its weight is charged against
    d, and a flow whose backward weights would exceed d is cut.  Parallel
    edges take non-decreasing (i, j), so _crossings builds each multiset
    once."""
    lightest = 2 if cut and 2 in (valences[u], valences[v]) else 1
    out = []
    if u != v and not (left_u and left_v):
        # the edge that closes x leaves x when more weight enters x
        x, y, left_y = (v, u, left_u) if left_u else (u, v, left_v)
        for net, spare, flow in level:
            w = net[x]
            i, j, w = (x, y, -w) if w < 0 else (y, x, w)
            least = int(i >= j)
            if w < lightest or w > d or w * least > spare or parallel and (i, j) < flow[-1][:2]:
                continue
            moved = list(net)
            moved[x] = 0
            moved[y] += net[x]
            if left_y or not moved[y]:
                out.append((tuple(moved), spare - w * least, flow + ((i, j, w, least),)))
        return out
    orientations = ((u, v, 1),) if u == v else ((u, v, 0), (v, u, 1))
    for net, spare, flow in level:
        for i, j, least in orientations:
            if parallel and (i, j) < flow[-1][:2]:
                continue
            for w in range(lightest, (spare if least else d) + 1):
                moved = list(net)
                moved[i] += w
                moved[j] -= w
                out.append((tuple(moved), spare - w * least, flow + ((i, j, w, least),)))
    return out


def _crossings(flow, spare):
    """The quotients of one balanced flow, each with its prod m!: every
    way to spend `spare`, what is left of d over the least k, on crossings
    beyond those least ones, edge by edge; the last edge takes the
    remainder divided by its weight.  Parallel edges of one orientation
    take non-decreasing (k, w), so each multiset appears once and equal
    decorated edges are adjacent: prod m! is read from their runs."""
    out = []
    _cross(flow, 0, spare, 1, 0, [], out)
    return out


def _cross(flow, n, spare, runs, run, chosen, out):
    """Append to `out` every completion of `chosen`, the decorated edges
    flow[:n] with product of run factorials `runs` and last run `run`.  A
    module-level function, not a closure that calls itself, so a call
    leaves no reference cycle behind."""
    i, j, w, k = flow[n]
    if chosen and chosen[-1][:2] == (i, j):
        floor = chosen[-1][2] + (w < chosen[-1][3])
        if floor > k:
            spare -= w * (floor - k)
            k = floor
    last = n == len(flow) - 1
    if last:
        extra, rest = divmod(spare, w)
        extras = () if extra < 0 or rest else (extra,)
    else:
        extras = range(spare // w + 1)
    for extra in extras:
        edge = (i, j, k + extra, w)
        step = run + 1 if chosen and chosen[-1] == edge else 1
        chosen.append(edge)
        if last:
            out.append((tuple(sorted(chosen)), runs * step))
        else:
            _cross(flow, n + 1, spare - w * extra, runs * step, step, chosen, out)
        chosen.pop()


# ---------------------------------------------------------------------------
# explicit double covers (lifts)


def e33_indices(edges, s):
    return _shape(edges, s).e33


def lift_classes(edges, s):
    """Isomorphism classes of connected double covers over a quotient.

    Returns (classes, connected_count, assignment_count) where classes is a
    list of (signs, automorphism_count) with signs the lexicographically
    smallest gluing assignment in the class, ordered by signs.

    Flipping a set f of doubled positions swaps their + and - and toggles
    the sign of every e33 edge with exactly one endpoint in f (every other
    edge lifts to a pair that a flip only permutes); permuting equal
    quotient edges permutes their signs.  These form a group G of order
    2^{#doubled} * prod m! over groups of m equal edges, and two sign
    vectors give isomorphic lifts iff they share a G-orbit.  An
    automorphism is an element of G fixing the signs together with a
    matching of each lift pair onto its image: one where the pair's two
    lifts differ, two where they coincide (both endpoints 2-valent, or a
    crossed loop).  So |Aut| = |G| / |orbit| * 2^{#coinciding pairs}.

    A sign vector is an integer, the first e33 edge's sign its top bit, so
    ascending integers are ascending sign tuples.  Its key, the least
    vector with its crossed-sign count in each group of equal e33 edges
    (grouped by value), fixes it up to the permutations; the flips toggle
    the XOR span of one mask per doubled position.  Visited in ascending
    order, a vector with a known key counts in its orbit, and one with a
    new key opens an orbit as its representative, records the keys of all
    its toggles and tests connectivity, an orbit invariant, once.
    """
    shape = _shape(edges, s)
    valences, omegas, e33 = shape.valences, shape.omegas, shape.e33
    # lift vertex numbers: (v,+) is plus[v] and (v,-) is minus[v]; (v,o) is both
    plus, minus, n = {}, {}, 0
    for v in range(s):
        if valences[v]:
            plus[v], minus[v] = n, n + (v not in omegas)
            n = minus[v] + 1
    doubled = [v for v in plus if plus[v] != minus[v]]
    group_order = 2 ** len(doubled) * multiset_automorphisms(edges)
    bit, groups = {}, {}  # groups: equal e33 edges -> the sums of their lowest c bits
    for b, x in enumerate(reversed(e33)):
        bit[x] = 1 << b
        low = groups.setdefault(edges[x], [0])
        low.append(low[-1] + bit[x])
    lows = [low for low in groups.values() if len(low) > 2]  # two or more equal edges
    toggles = {0}
    for v in doubled:
        flip = sum(bit[x] for x in e33 if (edges[x][0] == v) != (edges[x][1] == v))
        toggles |= {t ^ flip for t in toggles}
    crossed_loops = sum(bit[x] for x in e33 if edges[x][0] == edges[x][1])
    fixed_pairs = sum(i in omegas and j in omegas for i, j, _k, _w in edges)
    lifts = [(bit.get(x, 0), ((plus[i], plus[j]), (minus[i], minus[j])),
              ((plus[i], minus[j]), (minus[i], plus[j])))
             for x, (i, j, _k, _w) in enumerate(edges)]

    def key(signs):
        for low in lows:
            signs = signs & ~low[-1] | low[(signs & low[-1]).bit_count()]
        return signs

    orbits = []  # [representative, size, connected]
    orbit_of = {}  # key -> its orbit
    for signs in range(2 ** len(e33)):
        orbit = orbit_of.get(key(signs))
        if orbit is None:
            pairs = [p for b, flat, cross in lifts for p in (cross if signs & b else flat)]
            orbit = [signs, 0, connected(n, pairs)]
            orbits.append(orbit)
            for t in toggles:
                orbit_of[key(signs ^ t)] = orbit
        orbit[1] += 1

    classes = [
        (tuple(CROSSED if signs & bit[x] else STRAIGHT for x in e33),
         group_order // size * 2 ** (fixed_pairs + (signs & crossed_loops).bit_count()))
        for signs, size, joined in orbits if joined
    ]
    connected_count = sum(size for _signs, size, joined in orbits if joined)
    return classes, connected_count, 2 ** len(e33)


# ---------------------------------------------------------------------------
# covers and multiplicities


class QuotientCover(Record):
    """A quotient cover together with one isomorphism class of double cover.

    `edges` is the sorted multiset of (i, j, k, w) tuples.  `lift` holds the
    gluing sign (0 straight / 1 crossed) for each edge index listed by
    e33_indices(edges), lexicographically minimal in its isomorphism class.
    The quotient must be balanced, of degree d over the base point and
    connected, so its genus is never negative, and every position must be
    2- or 3-valent.  ``shape``, computed once here, is not a field.
    """

    _fields = ("d", "g", "edges", "lift", "lift_automorphisms")
    __slots__ = _fields + ("shape",)

    def __init__(self, d: int, g: int, edges, lift, lift_automorphisms: int):
        super().__init__(d, g, tuple(sorted(tuple(e) for e in edges)), tuple(lift),
                         lift_automorphisms)
        if self.g < 2:
            raise ValueError("quotient covers need g >= 2")
        for i, j, k, w in self.edges:
            if not (0 <= i < self.positions and 0 <= j < self.positions):
                raise ValueError("edge %r leaves the positions 0..%d" % ((i, j, k, w), self.g - 2))
            if w < 1 or k < 0:
                raise ValueError("edge %r needs w >= 1 and k >= 0" % ((i, j, k, w),))
        if not _is_balanced(self.edges, self.positions):
            raise ValueError("quotient %r is not balanced at every position" % (self.edges,))
        if self.degree_over_base() != self.d:
            raise ValueError("quotient %r has degree %d over the base point, not d=%d"
                             % (self.edges, self.degree_over_base(), self.d))
        if not connected(self.positions, ((i, j) for i, j, _k, _w in self.edges)):
            raise ValueError("quotient %r is disconnected: it does not join the positions "
                             "0..%d" % (self.edges, self.g - 2))
        object.__setattr__(self, "shape", _shape(self.edges, self.positions))
        if any(valence not in (2, 3) for valence in self.shape.valences):
            raise ValueError("quotient %r has valences %r: every position must be 2- or "
                             "3-valent" % (self.edges, self.shape.valences))
        if type(self.lift_automorphisms) is not int or self.lift_automorphisms < 1:
            raise ValueError("lift_automorphisms must be an int >= 1, not %r"
                             % (self.lift_automorphisms,))
        if len(self.lift) != len(self.shape.e33):
            raise ValueError("lift has %d signs, expected %d"
                             % (len(self.lift), len(self.shape.e33)))
        if any(type(sign) is not int or sign not in (STRAIGHT, CROSSED) for sign in self.lift):
            raise ValueError("lift %r has a sign that is neither 0 (straight) nor 1 (crossed)"
                             % (self.lift,))

    @property
    def positions(self):
        return self.g - 1

    def valences(self):
        return self.shape.valences

    @property
    def four_valent_count(self):
        """Number of 4-valent vertices upstairs = 2-valent quotient positions."""
        return len(self.shape.omegas)

    @property
    def quotient_genus(self):
        return self.shape.genus

    def two_valent_weights(self):
        return dict(self.shape.omegas)

    def degree_over_base(self):
        return sum(w * k for _i, _j, k, w in self.edges)


class CoverMultiplicity(Record):
    """The multiplicity of one twisted cover."""

    __slots__ = _fields = ("value",)


def _check_genus(genus, c, g):
    """The structural genus 2g' = g - c + 1 of a quotient with c two-valent
    positions; it holds when every position is 2- or 3-valent."""
    if 2 * genus != g - c + 1:
        raise ValueError("structural genus %d does not satisfy 2g' = g - c + 1 (g=%d, c=%d)"
                         % (genus, g, c))


def _weight(edges, shape, g):
    """The lift-independent factor prod_{2-valent v}(omega_v - 1) * prod
    w(e) of a quotient's multiplicity, after checking the structural
    genus."""
    _check_genus(shape.genus, len(shape.omegas), g)
    return prod(wv - 1 for wv in shape.omegas.values()) * prod(w for _i, _j, _k, w in edges)


def _closed_lift_sum(edges, shape):
    """sum of 1/|Aut| over a quotient's lift classes, in closed form:
    (2^{g'} - delta_{0c}) / (2^{c+1} |Aut(qbar)|)."""
    c = len(shape.omegas)
    return Fraction(2**shape.genus - (c == 0), 2 ** (c + 1) * multiset_automorphisms(edges))


def cover_multiplicity(cover: QuotientCover) -> CoverMultiplicity:
    """Multiplicity of one twisted cover (quotient + lift class)."""
    value = 2 ** (cover.g - 1) * _weight(cover.edges, cover.shape, cover.g)
    return CoverMultiplicity(Fraction(value, cover.lift_automorphisms))


def quotient_multiplicity(edges, g) -> Fraction:
    """Closed-form multiplicity of a whole quotient cover (all lifts at
    once): 2^{g-1} * prod(omega_v - 1) * prod w(e) times the closed lift
    sum.  Used as a cross-check against summing cover_multiplicity over the
    lift classes."""
    shape = _shape(edges, g - 1)
    return 2 ** (g - 1) * _weight(edges, shape, g) * _closed_lift_sum(edges, shape)


def _check_point(d, g):
    if d < 1:
        raise ValueError("degree must be >= 1")
    if g < 2:
        raise ValueError("the tropical pipeline needs g >= 2 (one branch point)")


def enumerate_quotient_covers(d: int, g: int) -> list:
    """All twisted covers (quotient + lift class) of degree d, genus g,
    with nonzero multiplicity, sorted by (edges, lift)."""
    _check_point(d, g)
    return [
        QuotientCover(d=d, g=g, edges=edges, lift=signs, lift_automorphisms=aut)
        for edges in _enumerate_multisets(d, g)
        if _weight(edges, _shape(edges, g - 1), g)
        for signs, aut in lift_classes(edges, g - 1)[0]
    ]


@lru_cache(maxsize=None)
def _lift_factor(pairs, s):
    """prod m!(q) * sum 1/|Aut| over the lift classes of any quotient q on
    the sorted undirected edge pairs `pairs` (module docstring), read from
    the lifts of the pairs themselves, each taken as the edge (u, v, 0, 1)."""
    edges = tuple((u, v, 0, 1) for u, v in pairs)
    classes = lift_classes(edges, s)[0]
    return multiset_automorphisms(edges) * sum(Fraction(1, aut) for _signs, aut in classes)


def count_tropical(d: int, g: int) -> Fraction:
    """Degree-d genus-g twisted count via the tropical pipeline: over each
    labelled graph, the sum of its nonzero-weight quotients' weight / prod
    m!, times the graph's prod m! * sum 1/|Aut|, summed in integers over
    the graph's own prod m! (module docstring)."""
    _check_point(d, g)
    s = g - 1
    total = Fraction(0)

    def leaf(flows, valences, pairs):
        nonlocal total
        _check_genus(len(pairs) - s + 1, valences.count(2), g)
        automorphisms = multiset_automorphisms(pairs)
        # one edge at each two-valent position carries its omega
        two = [n for v, n in {v: n for n, e in enumerate(pairs) for v in e}.items()
               if valences[v] == 2]
        weights = 0
        for _net, spare, flow in flows:
            weight = prod(w for _i, _j, w, _k in flow) * prod(flow[n][2] - 1 for n in two)
            weights += weight * sum(automorphisms // runs
                                    for _edges, runs in _crossings(flow, spare))
        if weights:
            total += Fraction(weights, automorphisms) * _lift_factor(pairs, s)

    for t, c in vertex_profiles(g):
        walk_tree(t, c, [((0,) * s, d, ())], partial(_extend, d, True), leaf)
    return 2 ** (g - 1) * total


def verify_preimage_formula(cover: QuotientCover) -> bool:
    """Recompute sum over lift classes of 1/|Aut| from explicit double
    covers and compare with (2^{g'} - delta_{0c}) / (2^{c+1} |Aut(qbar)|)."""
    details = preimage_details(cover)
    return details["lift_sum"] == details["closed_form"]


def preimage_details(cover: QuotientCover) -> dict:
    if len(cover.edges) > 12:
        raise ValueError("cover too large for explicit lift enumeration (> 12 edges)")
    classes, connected, total = lift_classes(cover.edges, cover.positions)
    return {
        "lift_sum": sum((Fraction(1, aut) for _signs, aut in classes), Fraction(0)),
        "closed_form": _closed_lift_sum(cover.edges, cover.shape),
        "classes": classes,
        "connected_assignments": connected,
        "total_assignments": total,
        "four_valent_count": cover.four_valent_count,
        "quotient_genus": cover.quotient_genus,
    }


# ---------------------------------------------------------------------------
# export


def _sign_by_edge(cover: QuotientCover) -> dict:
    """Map edge index -> gluing sign, for the e33 edges."""
    return dict(zip(cover.shape.e33, cover.lift))


def cover_record(cover: QuotientCover) -> dict:
    """JSON-ready description of one twisted cover."""
    sign_by_edge = _sign_by_edge(cover)
    value = cover_multiplicity(cover).value
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
        "four_valent_count": cover.four_valent_count,
        "quotient_genus": cover.quotient_genus,
        "lift_automorphisms": cover.lift_automorphisms,
        "multiplicity": {
            "numerator": str(value.numerator),
            "denominator": str(value.denominator),
        },
    }


def cover_to_json(covers) -> str:
    return json.dumps([cover_record(cv) for cv in covers], indent=2)


def cover_to_dot(cover: QuotientCover, name="cover") -> str:
    """DOT rendering; edges are oriented by the covering map (forward
    around the circle), vertices carry their branch-point position."""
    sign_by_edge = _sign_by_edge(cover)
    valences = cover.valences()
    lines = ["digraph %s {" % name]
    for v in range(cover.positions):
        lines.append('  v%d [label="p%d (%d-valent)"];' % (v, v + 1, valences[v]))
    for idx, (i, j, k, w) in enumerate(cover.edges):
        label = "w=%d k=%d" % (w, k)
        if idx in sign_by_edge:
            label += " lift=%s" % ("crossed" if sign_by_edge[idx] else "straight")
        lines.append('  v%d -> v%d [label="%s"];' % (i, j, label))
    lines.append("}")
    return "\n".join(lines)
