"""Graph-sum pipeline: propagators, balanced-weight integrals, assembly.

For genus g > 2 the connected twisted count of degree d is assembled from
finite graph data.  The graphs are the connected multigraphs on g - 1
vertices of valence 2 or 3, which have no loops at g > 2 (the graphs
module docstring says why).  Each graph class is summed over all total
orders of its vertices, and each edge k contributes one propagator factor

    P(q_k) = sum_{w>=1} c_w (x_t/x_h)^w
           + sum_{a>=1} q_k^a sum_{w|a} c_w ((x_t/x_h)^w + (x_h/x_t)^w)

where t is the endpoint that comes earlier in the order, h the later one,
and the weight factor c_w is w, w*sqrt(w-1) or w*(w-1) according to
whether neither, one or both endpoints are 2-valent.  Extracting the
coefficient of x_1^0...x_s^0 forces the germ weights to balance at every
vertex, the q_k-exponent records the degree the edge carries over the
base point, and the total q-degree is the covering degree.  Weights are
truncated at w <= d, which is lossless: the degree over any point of the
base bounds every edge weight.

One grading variable.  The graph sum sets every q_k to one q and reads
the degree-d part, so a series term is keyed by its total q-degree and
x-exponents only.  The oracle's multidegree needs no per-edge variables
either: the q_k are independent, so [q_1^a_1...q_r^a_r] prod_k P(q_k) is
the product of each propagator's degree-a_k part, whose x^0 coefficient
``feynman_integral`` takes.

Integer weights.  The factor above is w times one sqrt(w-1) per 2-valent
endpoint, so a monomial of the propagator product (one weight w_k and one
direction per edge) has coefficient

    prod_k w_k  *  prod_{2-valent v}  sqrt(w_e - 1) * sqrt(w_e' - 1)

with e, e' the two edges at v (distinct: there are no loops).  The
x_v-exponent of the monomial is +-w_e +- w_e', so it vanishes only when
w_e = w_e', and then the two roots at v multiply to (w_e - 1).  The graph
sum therefore uses the integer rule: every 2-valent vertex designates its
lowest-index edge, and an edge's factor is c_w = w * (w-1)^k with k the
number of its endpoints that designate it, except that c_1 = 0 next to
any 2-valent endpoint (as sqrt(0) = 0 makes it in the radical rule).  On
every x-balanced monomial both rules give the same value, so every x^0
coefficient agrees.  Both rules give positive factors with the same zero
set (w = 1 at a 2-valent end), so every partial product has the same
terms under either rule, and a product's edge limits (below), which read
exponents only, keep the same ones.  Only coefficients off x^0, which
nothing reads, differ.

Labelled graphs instead of orders.  Let f(G, pi) be the sum of the x^0
coefficients of total q-degree d of graph G under the vertex order pi.
Renaming the vertices of a class C so that pi becomes the identity turns
(C, pi) into a labelled graph G on the positions with f(C, pi) =
f(G, identity), the same integrand with renamed variables.  Each labelled
G isomorphic to C arises from |VAut(C)| orders, so

    sum_pi f(C, pi) = |VAut(C)| * sum_{labelled G ~ C} f(G, identity).

As |Aut(C)| = |VAut(C)| * prod m! over the parallel-edge multiplicities m,
a class's term f(C, pi) / |Aut(C)| splits into one term per labelled
graph, f(G, identity) / prod m!(G).  So the sum runs over the labelled
graphs, the leaves of ``graphs.edge_tree``, under the identity order,
with no canonical form or automorphism search.

Shared prefixes.  Each edge's product step needs the orientation (the
tail is the endpoint earlier in the order), the designations (a 2-valent
vertex designates its first edge), the pruning limit at either end (what
the later edges can still cancel there, at most d per edge end not yet
placed) and the propagator; ``_integer_factor`` reads them off the
endpoints' valences and open ends and binds the propagator to that
placement (``TruncatedSeries.bound``).  A product with a bound factor
forms only the term pairs whose exponents at the edge's tail and head
stay within the limits, so no term the later edges could not cancel is
ever built: at (4,7) the products form 288,275 pairs for 209,583 kept
terms, where multiplying first and filtering after formed 1,806,851.
Under the identity order an edge (u, v), u < v, runs from u to v, and
its integer factor depends only on (vertex count, tail, head, d, whether
an endpoint is 2-valent, designation count): that key fixes every
exponent and every c_w, and ``_integer_propagator`` builds each
propagator once.  ``_balanced_sums`` walks ``graphs.edge_tree``, whose
node is an edge with the open ends it leaves, so every graph's product
of its first k edges is formed once, at the node that ends that prefix,
and serves every graph below it.  An empty partial product makes the
value 0 for every graph below, so the walk cuts the subtree there: 1,286
series products at (3,6) instead of one per edge, 3,030, and 20,065 at
(4,7) instead of 58,590.  ``_integrand`` and ``_multidegree_integrals``
fold the same product over one graph's edges in any vertex order
(``_factors``), so the walk and ``_integrand`` give every graph the same
value.

The prefactor is derived, not fitted.  The count is

    2^(g-1) * sum over profiles (t, c) of (2^g' - delta_{0c}) / 2^(c+1)
            * sum over labelled G of that profile of f(G, identity) / prod m!(G)

with t 3-valent and c 2-valent vertices and g' = t/2 + 1, and it equals
the tropical count (tropical.py) graph by graph:

1. The propagator's q^a sum_{w|a} term is the sum over crossing counts k
   with w*k = a, in either direction: a tropical edge (i, j, k, w).
2. Its a = 0 term runs tail to head only, as k = 0 needs the edge to go
   forward (i < j).  So f(G, identity) sums over the balanced degree-d
   decorations of G, one decoration per labelled edge.
3. The integer rule's factor on a decoration is prod w * prod over
   2-valent v of (omega_v - 1), the weight part of the tropical
   multiplicity; it vanishes exactly on the decorations with a weight-1
   2-valent vertex, which tropical drops.
4. Summing 1/|Aut| over decorated edge multisets, |Aut| the product of
   m! over identical decorated edges, equals summing over the ordered
   decorations and dividing by prod m!(G).

With 2g' = g - c + 1, tropical's remaining factor (2^g' - delta_{0c})
* 2^(2g'-3) is 2^(g-1) (2^g' - delta_{0c}) / 2^(c+1), so for every
labelled graph G the sum of ``tropical.quotient_multiplicity`` over G's
decorations equals G's term above; the tests check this identity on
every labelled graph at each test point.  Records and cache keys name
this prefactor by its reading "2^(g-1) multiplies, #Aut divides".
``calibrate_normalization`` compares it with the symmetric-group count
at the anchor points, off every query path.

``feynman_integral`` and ``direct_cover_sum`` keep the radical rule and
per-edge multidegrees, and serve as the oracle for the integer one.
Every integral they extract is asserted to be rational: the sqrt(w-1)
factors produced at 2-valent vertices must pair up exactly when the
balancing holds, so a surviving radical signals a real bug rather than
numerical noise.

Each labelled graph's term is a pure function of the graph, whose work
the walk shares only through equal prefixes; results are combined by
exact arithmetic in the tree's fixed order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .factorizations import count_twisted
from .graphs import FeynmanGraph, GraphClass, multiset_automorphisms, walk_tree
# no counting path calls enumerate_graphs; the name stays because the
# graphs.enumerate probe in perfbench/probes.py wraps feynman.enumerate_graphs
from .graphs import enumerate_graphs  # noqa: F401
from .graphs import vertex_profiles as _vertex_profiles
from .radicals import RadicalScalar
from .record import Record
from .series import TruncatedSeries

#: Small (d, g) points where the symmetric-group count is cheap; used to
#: check the derived prefactor.
ANCHOR_POINTS = ((1, 3), (2, 3), (1, 4), (2, 4))


class CalibrationError(RuntimeError):
    """The derived prefactor misses the symmetric-group count at an anchor."""


class NonRationalIntegral(RuntimeError):
    """A balanced-coefficient extraction left a square root standing."""


def _divisors(a: int):
    return [w for w in range(1, a + 1) if a % w == 0]


def propagator_coefficient(w: int, valence_k1: int, valence_k2: int) -> RadicalScalar:
    """Weight factor c_w of an edge whose endpoints have the given valences.

    c_w = w when both endpoints are 3-valent, w*sqrt(w-1) when exactly one
    is 2-valent, and w*(w-1) when both are.  In particular c_1 = 0 as soon
    as a 2-valent endpoint is involved.
    """
    if w < 1:
        raise ValueError("edge weight must be positive, got %r" % (w,))
    for val in (valence_k1, valence_k2):
        if val not in (2, 3):
            raise ValueError("endpoint valences must be 2 or 3, got %r" % (val,))
    two_valent_ends = (valence_k1 == 2) + (valence_k2 == 2)
    if two_valent_ends == 0:
        return RadicalScalar.from_rational(w)
    if two_valent_ends == 1:
        return RadicalScalar.sqrt(w - 1) * w
    return RadicalScalar.from_rational(w * (w - 1))


class OrientedEdge(Record):
    """An edge with its endpoints ordered by the chosen vertex order.

    ``tail`` is the endpoint that comes earlier in the order and receives
    the positive x-exponent in the crossing-free part of the propagator.
    ``index`` names the edge (for the oracle's multidegree);
    ``vertex_count`` fixes the arity of the x-exponents.
    """

    __slots__ = _fields = ("index", "tail", "head", "tail_valence", "head_valence", "vertex_count")


def _ranks(graph: FeynmanGraph, order) -> list:
    """Each vertex's position in ``order``, a permutation of the vertices."""
    order = tuple(order)
    if sorted(order) != list(range(graph.vertex_count)):
        raise ValueError("order must be a permutation of the vertices")
    rank = [0] * graph.vertex_count
    for position, v in enumerate(order):
        rank[v] = position
    return rank


def oriented_edges(graph: FeynmanGraph, order) -> list:
    """The graph's edges as OrientedEdge records under the vertex order."""
    rank = _ranks(graph, order)
    degrees = graph.degrees()
    out = []
    for k, (u, v) in enumerate(graph.edges):
        tail, head = (u, v) if rank[u] <= rank[v] else (v, u)
        out.append(OrientedEdge(k, tail, head, degrees[tail], degrees[head], graph.vertex_count))
    return out


def _edge_series(vertex_count: int, tail: int, head: int, cap: int, c) -> TruncatedSeries:
    """The propagator of an edge from ``tail`` to ``head`` in the one
    variable q, truncated at degree ``cap``, with c_w = ``c[w - 1]``.

    The crossing-free part (q-degree 0) is also truncated at weight
    w <= cap, which matches the weight bound of a degree-``cap`` cover.
    """
    terms = {}
    for a in range(cap + 1):
        # q^0: every weight up to cap, tail to head; q^a: w | a, both ways
        weights, signs = (range(1, cap + 1), (1,)) if a == 0 else (_divisors(a), (1, -1))
        for w in weights:
            coef = c[w - 1]
            if not coef:
                continue
            for sign in signs:  # the two signs meet only on a loop
                xe = [0] * vertex_count
                xe[tail] += sign * w
                xe[head] -= sign * w
                key = (a, tuple(xe))
                terms[key] = terms[key] + coef if key in terms else coef
    # the keys are well-formed by construction, so skip the per-term checks
    series = TruncatedSeries(vertex_count, cap)
    series.terms = {key: coef for key, coef in terms.items() if coef}
    return series


def propagator(edge: OrientedEdge, cap: int) -> TruncatedSeries:
    """The edge's propagator in the radical rule, truncated at degree
    ``cap``; c_w is ``propagator_coefficient`` of the endpoint valences."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return _edge_series(edge.vertex_count, edge.tail, edge.head, cap,
                        [propagator_coefficient(w, edge.tail_valence, edge.head_valence)
                         for w in range(1, cap + 1)])


@lru_cache(maxsize=None)
def _integer_propagator(vertex_count: int, tail: int, head: int, cap: int,
                        two_valent_end: bool, designations: int) -> TruncatedSeries:
    """The integer rule's propagator of an edge from ``tail`` to ``head``,
    built once per key; callers only read it.  Its c_w is
    w * (w-1)^designations, except c_1 = 0 when an endpoint is 2-valent."""
    return _edge_series(vertex_count, tail, head, cap,
                        [0 if w == 1 and two_valent_end else w * (w - 1) ** designations
                         for w in range(1, cap + 1)])


def _factors(edges, degrees, rank, cap: int, integer: bool):
    """Yield the propagator of each of a graph's ``edges`` in index order,
    in the integer rule or the radical one, bound to the edge's tail,
    head and their limits (``TruncatedSeries.bound``).

    ``degrees`` are the graph's valences and ``rank[v]`` is the position of
    vertex v in the vertex order (see ``_ranks``); the tail is the
    endpoint that comes earlier.  A limit is the x-exponent the later
    edges can still cancel at that endpoint: at most ``cap`` per edge end
    not yet placed.  The factor moves only the exponents at its tail and
    head, and every other vertex keeps its limit from the previous edge,
    so a product with it checks only those two."""
    n = len(degrees)
    left = list(degrees)  # edge ends still to be placed at each vertex
    for k, (tail, head) in enumerate(edges):
        left[tail] -= 1
        left[head] -= 1
        if rank[tail] > rank[head]:
            tail, head = head, tail
        if integer:
            yield _integer_factor(n, tail, head, cap, degrees[tail], degrees[head],
                                  left[tail], left[head])
        else:
            factor = propagator(OrientedEdge(k, tail, head, degrees[tail], degrees[head], n), cap)
            yield factor.bound(tail, head, left[tail] * cap, left[head] * cap)


def _integer_factor(n: int, tail: int, head: int, cap: int, tail_valence: int,
                    head_valence: int, tail_left: int, head_left: int) -> TruncatedSeries:
    """The integer rule's propagator from ``tail`` to ``head`` bound to
    their limits, with ``tail_left`` and ``head_left`` edge ends still to
    be placed there; a 2-valent vertex designates its first edge (module
    docstring), the one that leaves it one end open."""
    designations = (tail_valence == 2 and tail_left == 1) + (head_valence == 2 and head_left == 1)
    factor = _integer_propagator(n, tail, head, cap, 2 in (tail_valence, head_valence),
                                 designations)
    return factor.bound(tail, head, tail_left * cap, head_left * cap)


def _graph_of(graph_or_class) -> FeynmanGraph:
    if isinstance(graph_or_class, GraphClass):
        return graph_or_class.graph
    if isinstance(graph_or_class, FeynmanGraph):
        return graph_or_class
    raise TypeError("expected a FeynmanGraph or GraphClass, got %r" % (graph_or_class,))


def _integrand(graph: FeynmanGraph, order: tuple, cap: int) -> TruncatedSeries:
    """x-balanced part of the propagator product under one vertex order, in
    the integer rule: one graph's product for any order, where the walk of
    ``_balanced_sums`` serves the identity order.

    Each product with a bound factor of ``_factors`` forms only the terms
    whose x-exponent at every vertex stays within what the remaining
    edges could still cancel.  This never touches an x^0 coefficient of
    the full product, and the final series consists of exactly those.
    """
    series = TruncatedSeries.constant(graph.vertex_count, cap, 1)
    for factor in _factors(graph.edges, graph.degrees(), _ranks(graph, order), cap, True):
        series = series * factor
    return series


@lru_cache(maxsize=16)
def _multidegree_integrals(graph: FeynmanGraph, order: tuple, cap: int,
                           integer: bool = False) -> MappingProxyType:
    """Map every multidegree a with |a| <= cap to the x^0 coefficient of
    the product of each edge k's degree-a_k propagator part (zeros left
    out), in the radical rule or the integer one: ``_integrand``'s
    product, with each partial product split by the degrees of its edges
    so far."""
    factors = _factors(graph.edges, graph.degrees(), _ranks(graph, order), cap, integer)
    partial = {(): TruncatedSeries.constant(graph.vertex_count, cap, 1)}
    for factor in factors:
        partial = {
            prefix + (degree,): product
            for prefix, series in partial.items()
            for degree in range(cap - sum(prefix) + 1)
            if (product := series * factor.degree_part(degree))
        }
    zero_x = (0,) * graph.vertex_count
    # read-only, as every caller gets the same cached mapping
    return MappingProxyType({a: series.terms[(sum(a), zero_x)] for a, series in partial.items()})


def _check_multidegree(graph: FeynmanGraph, a) -> tuple:
    a = tuple(a)
    if any(type(x) is not int for x in a):
        raise TypeError("multidegree entries must be integers: %r" % (a,))
    if len(a) != len(graph.edges):
        raise ValueError(
            "multidegree has %d entries for %d edges" % (len(a), len(graph.edges))
        )
    if any(x < 0 for x in a):
        raise ValueError("multidegree entries must be non-negative")
    if sum(a) < 1:
        raise ValueError("multidegree must be positive somewhere: the cover "
                         "meets the base point at least once")
    return a


def feynman_integral(graph_class, order, a) -> RadicalScalar:
    """Coefficient of q_1^a_1...q_r^a_r x^0 in the propagator product, in
    the radical rule; always rational.

    ``order`` is a tuple listing the vertices from earliest to latest;
    ``a`` assigns each edge its q-degree (the degree it carries over the
    base point).  A non-rational extraction raises NonRationalIntegral.
    """
    graph = _graph_of(graph_class)
    a = _check_multidegree(graph, a)
    coef = _multidegree_integrals(graph, tuple(order), sum(a)).get(a, RadicalScalar())
    if not coef.is_rational:
        raise NonRationalIntegral(
            "integral of %r at %r is %r" % (graph, a, coef)
        )
    return coef


def direct_cover_sum(graph_class, order, a) -> RadicalScalar:
    """Independent check of feynman_integral by direct enumeration.

    Instead of multiplying series, assign every edge a weight and an
    orientation compatible with its q-degree (weight dividing a_k with
    free orientation when a_k >= 1; any weight <= sum(a) flowing from the
    order-earlier endpoint when a_k = 0), keep the assignments whose
    signed weights cancel at every vertex, and sum the products of the
    c_w factors.
    """
    graph = _graph_of(graph_class)
    a = _check_multidegree(graph, a)
    cap = sum(a)
    edges = oriented_edges(graph, order)
    options = []
    for edge in edges:
        opts = []
        if a[edge.index] == 0:
            weights = range(1, cap + 1)
            flips = (False,)
        else:
            weights = _divisors(a[edge.index])
            flips = (False, True)
        for w in weights:
            coef = propagator_coefficient(w, edge.tail_valence, edge.head_valence)
            if not coef:
                continue
            for flip in flips:
                tail, head = (edge.head, edge.tail) if flip else (edge.tail, edge.head)
                opts.append((tail, head, w, coef))
        if not opts:
            return RadicalScalar()
        options.append(opts)
    total = RadicalScalar()
    for choice in itertools.product(*options):
        net = [0] * graph.vertex_count
        for tail, head, w, _ in choice:
            net[tail] += w
            net[head] -= w
        if any(net):
            continue
        prod = RadicalScalar.from_rational(1)
        for _, _, _, coef in choice:
            prod = prod * coef
        total = total + prod
    return total


# -- assembly ---------------------------------------------------------------


#: label of the derived prefactor (see the module docstring); run records
#: and cache keys carry it
_READING = "2^(g-1) multiplies, #Aut divides"


@lru_cache(maxsize=None)
def _balanced_sums(t: int, c: int, d: int) -> MappingProxyType:
    """Map the edge tuple of each labelled graph of the profile (t, c)
    whose f(G, identity) at degree d is nonzero to that value; read-only,
    as every caller gets the same cached mapping.

    One walk of ``graphs.edge_tree``: the state at a node is the product
    of the bound factors of the edges on its path (module docstring,
    "Shared prefixes"), and an empty product cuts the subtree below."""
    n = t + c
    zero_x = (0,) * n
    sums = {}

    def step(series, valences, v, u, left_v, left_u, _parallel):
        # under the identity order the edge (v, u), v < u, runs from v to u
        return series * _integer_factor(n, v, u, d, valences[v], valences[u], left_v, left_u)

    def leaf(series, _valences, edges):
        value = series.coefficient(d, zero_x)
        if value:
            sums[edges] = value

    walk_tree(t, c, TruncatedSeries.constant(n, d, 1), step, leaf)
    return MappingProxyType(sums)


def _assemble(d: int, g: int) -> Fraction:
    total = Fraction(0)
    for t, c in _vertex_profiles(g):
        quotient_genus = t // 2 + 1
        weight = Fraction(2 ** quotient_genus - (1 if c == 0 else 0), 2 ** (c + 1))
        for edges, value in _balanced_sums(t, c, d).items():
            total += weight * Fraction(value, multiset_automorphisms(edges))
    return total * 2 ** (g - 1)


def calibrate_normalization() -> str:
    """Check the derived prefactor against the symmetric-group count at
    each (d, g) of ANCHOR_POINTS and return its label; raise CalibrationError on a
    mismatch.  No query runs this check."""
    mismatches = []
    for d, g in ANCHOR_POINTS:
        value = _assemble(d, g)
        target = count_twisted(d, g, connected=True).value
        if value != target:
            mismatches.append("(%d, %d): graph sum %s, symgroup %s" % (d, g, value, target))
    if mismatches:
        raise CalibrationError("the derived prefactor misses the anchors\n  "
                               + "\n  ".join(mismatches))
    return _READING


def normalization_reading() -> str:
    """Label of the derived prefactor reading."""
    return _READING


def generating_series_coefficient(d: int, g: int) -> Fraction:
    """Degree-d coefficient of the genus-g connected series, g > 2."""
    if g <= 2:
        raise ValueError("the graph sum needs genus g > 2, got g=%r" % (g,))
    if d < 1:
        raise ValueError("degree must be positive, got %r" % (d,))
    return _assemble(d, g)


def generating_series_export(g: int, max_degree: int) -> dict:
    """JSON-ready view of the genus-g series up to the given degree; every
    coefficient passes generating_series_coefficient's checks."""
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    coefficients = [
        (d, str(generating_series_coefficient(d, g))) for d in range(1, max_degree + 1)
    ]
    return {
        "g": g,
        "coefficients": coefficients,
        "normalization_reading": normalization_reading(),
    }
