"""Graph-sum pipeline: propagators, balanced-coefficient extraction, assembly."""

import itertools
from collections import defaultdict
from fractions import Fraction

import pytest

from twisted_hurwitz import feynman, graphs, tropical
from twisted_hurwitz.factorizations import count_twisted
from twisted_hurwitz.feynman import (
    ANCHOR_POINTS,
    CalibrationError,
    calibrate_normalization,
    direct_cover_sum,
    feynman_integral,
    generating_series_coefficient,
    generating_series_export,
    normalization_reading,
    oriented_edges,
    propagator,
    propagator_coefficient,
)
from twisted_hurwitz.graphs import (
    FeynmanGraph,
    canonical_form,
    enumerate_graphs,
    labelled_graphs,
    multiset_automorphisms,
    vertex_automorphisms,
    vertex_profiles,
)
from twisted_hurwitz.radicals import RadicalScalar


def _theta():
    (cls,) = enumerate_graphs(2, 0)
    return cls


def _banana():
    (cls,) = enumerate_graphs(0, 2)
    return cls


# -- edge weights ---------------------------------------------------------------


def test_propagator_coefficient_table():
    assert propagator_coefficient(1, 3, 3) == 1
    assert propagator_coefficient(3, 3, 3) == 3
    assert propagator_coefficient(1, 2, 3) == 0
    assert propagator_coefficient(1, 2, 2) == 0
    assert propagator_coefficient(2, 2, 3) == 2
    assert propagator_coefficient(3, 2, 3) == RadicalScalar.sqrt(2) * 3
    assert propagator_coefficient(2, 2, 2) == 2
    assert propagator_coefficient(3, 2, 2) == 6
    with pytest.raises(ValueError):
        propagator_coefficient(0, 3, 3)
    with pytest.raises(ValueError):
        propagator_coefficient(1, 4, 3)


def test_propagator_terms_both_threevalent():
    (edge, _e2, _e3) = oriented_edges(_theta().graph, (0, 1))
    series = propagator(edge, 2)
    # crossing-free part: w * x_tail^w x_head^-w for w = 1, 2
    assert series.coefficient(0, (1, -1)) == 1
    assert series.coefficient(0, (2, -2)) == 2
    assert series.coefficient(0, (-1, 1)) == 0
    # q^1: only w = 1, both orientations
    assert series.coefficient(1, (1, -1)) == 1
    assert series.coefficient(1, (-1, 1)) == 1
    # q^2: divisors 1 and 2
    assert series.coefficient(2, (2, -2)) == 2
    assert series.coefficient(2, (-1, 1)) == 1


def test_propagator_drops_weight_one_at_twovalent_ends():
    edge = oriented_edges(_banana().graph, (0, 1))[0]
    series = propagator(edge, 2)
    assert series.coefficient(0, (1, -1)) == 0
    assert series.coefficient(1, (1, -1)) == 0
    assert series.coefficient(1, (-1, 1)) == 0
    assert series.coefficient(0, (2, -2)) == 2
    assert series.coefficient(2, (2, -2)) == 2


def test_propagator_q_part_is_orientation_symmetric():
    for graph in (_theta().graph, _banana().graph):
        for edge in oriented_edges(graph, tuple(range(graph.vertex_count))):
            series = propagator(edge, 3)
            for (degree, xexp), coef in series.terms.items():
                if degree >= 1:
                    mirror = tuple(-x for x in xexp)
                    assert series.coefficient(degree, mirror) == coef


def test_oriented_edges_follow_the_order():
    graph = _theta().graph
    assert all(e.tail == 0 and e.head == 1 for e in oriented_edges(graph, (0, 1)))
    assert all(e.tail == 1 and e.head == 0 for e in oriented_edges(graph, (1, 0)))
    with pytest.raises(ValueError):
        oriented_edges(graph, (0, 0))


# -- balanced-coefficient extraction ----------------------------------------------


def test_theta_integral_hand_value():
    # oracle: hand enumeration; the only balanced assignment for a = (2,0,0)
    # is w = (2,1,1) with the first edge flowing against the other two
    assert feynman_integral(_theta(), (0, 1), (2, 0, 0)).as_fraction() == 2
    assert feynman_integral(_theta(), (0, 1), (1, 1, 0)).as_fraction() == 2
    assert feynman_integral(_theta(), (1, 0), (2, 0, 0)).as_fraction() == 2


def test_banana_integral_hand_values():
    # oracle: w = 2 against w = 2; weight-1 edges carry coefficient 0 here
    assert feynman_integral(_banana(), (0, 1), (2, 0)).as_fraction() == 4
    assert feynman_integral(_banana(), (0, 1), (1, 1)).as_fraction() == 0


def test_integral_argument_validation():
    with pytest.raises(ValueError):
        feynman_integral(_theta(), (0, 1), (0, 0, 0))  # no degree at all
    with pytest.raises(ValueError):
        feynman_integral(_theta(), (0, 1), (1, 1))  # arity mismatch
    with pytest.raises(ValueError):
        feynman_integral(_theta(), (0, 1), (-1, 2, 0))
    with pytest.raises(ValueError):
        feynman_integral(_theta(), (0, 2), (1, 0, 0))


@pytest.mark.parametrize("a", [(2.7, 0, 0), (2.0, 0, 0), (Fraction(2), 0, 0), (True, 1, 0),
                               ("2", 0, 0)])
def test_integral_refuses_non_integer_multidegrees(a):
    # a fractional entry is refused, not truncated to the value at (2, 0, 0)
    for integral in (feynman_integral, direct_cover_sum):
        with pytest.raises(TypeError):
            integral(_theta(), (0, 1), a)


def test_integrals_match_direct_enumeration():
    # the series product and the direct weighted-cover enumeration are
    # independent implementations; they must agree term by term
    profiles = [(2, 0), (0, 2), (2, 1), (0, 3), (0, 4)]
    checked = 0
    for t, c in profiles:
        for cls in enumerate_graphs(t, c):
            graph = cls.graph
            r = len(graph.edges)
            for order in itertools.permutations(range(graph.vertex_count)):
                for total in range(1, 5 - graph.vertex_count // 2):
                    for a in itertools.product(range(total + 1), repeat=r):
                        if sum(a) != total:
                            continue
                        assert feynman_integral(cls, order, a) == direct_cover_sum(
                            cls, order, a
                        )
                        checked += 1
    assert checked > 500


def test_integrals_match_direct_enumeration_on_loops():
    # the graph sum enumerates no loops, but the oracle takes them: a loop
    # moves no x-exponent, and the factor limits still count both its ends
    loop_graphs = (FeynmanGraph(1, ((0, 0),)),
                   FeynmanGraph(2, ((0, 0), (0, 1), (1, 1))),
                   FeynmanGraph(3, ((0, 0), (0, 1), (1, 2), (2, 2))))
    values = []
    for graph in loop_graphs:
        for order in itertools.permutations(range(graph.vertex_count)):
            for a in itertools.product(range(5), repeat=len(graph.edges)):
                if 1 <= sum(a) <= 4:
                    value = feynman_integral(graph, order, a)
                    assert value == direct_cover_sum(graph, order, a), (graph, order, a)
                    values.append(value)
    # oracle: hand enumeration; the lone loop at degree a has the weights
    # w | a in either direction, sum 2 * w * (w - 1)
    assert len(values) == 486
    assert [v for v in values if v] == [4, 12, 28]


def test_integrals_on_the_desk_grid_are_rational():
    for g in (3, 4, 5):
        for t, c in [(t, c) for c in range(g) for t in [g - 1 - c] if t % 2 == 0]:
            for cls in enumerate_graphs(t, c):
                r = len(cls.graph.edges)
                order = tuple(range(cls.graph.vertex_count))
                for a in itertools.product(range(4), repeat=r):
                    if not 1 <= sum(a) <= 3:
                        continue
                    value = feynman_integral(cls, order, a)
                    assert value.is_rational  # raises NonRationalIntegral otherwise


def test_non_rational_integral_raises(monkeypatch):
    # no graph gives one; a stubbed extraction shows the refusal and its message
    monkeypatch.setattr(feynman, "_multidegree_integrals",
                        lambda graph, order, cap: {(2, 0, 0): RadicalScalar.sqrt(2)})
    with pytest.raises(feynman.NonRationalIntegral, match=r"is sqrt\(2\)$"):
        feynman_integral(_theta(), (0, 1), (2, 0, 0))


def _graph_classes(g):
    for t, c in vertex_profiles(g):
        yield from enumerate_graphs(t, c)


def test_integer_rule_matches_the_radical_oracle():
    # every x^0 coefficient, per multidegree a with |a| <= cap, under every
    # vertex order
    checked = 0
    for g in (3, 4, 5):
        for cls in _graph_classes(g):
            graph = cls.graph
            for order in itertools.permutations(range(graph.vertex_count)):
                for cap in (1, 2, 3):
                    radical = feynman._multidegree_integrals(graph, order, cap)
                    integer = feynman._multidegree_integrals(graph, order, cap, True)
                    assert integer.keys() == radical.keys()
                    for a, coef in integer.items():
                        assert type(coef) is int
                        assert radical[a] == coef
                        checked += 1
    assert checked > 300


def _crossing_free_weights(graph, order, w):
    # c_w of each edge's integer factor, read off its q^0 x_tail^w x_head^-w term
    weights = []
    rank = feynman._ranks(graph, order)
    for factor in feynman._factors(graph.edges, graph.degrees(), rank, w, True):
        tail, head = factor.limits[:2]
        xexp = [0] * graph.vertex_count
        xexp[tail], xexp[head] = w, -w
        weights.append(factor.coefficient(0, xexp))
    return weights


def test_integer_rule_designates_one_edge_per_twovalent_vertex():
    graph = enumerate_graphs(0, 3)[0].graph  # triangle of 2-valent vertices
    assert graph.edges == ((0, 1), (0, 2), (1, 2))
    # vertices 0 and 1 designate edge 0, vertex 2 edge 1, under any order
    for order in ((0, 1, 2), (2, 1, 0)):
        assert _crossing_free_weights(graph, order, 3) == [3 * 2 * 2, 3 * 2, 3]
        assert _crossing_free_weights(graph, order, 1) == [0, 0, 0]
    assert _crossing_free_weights(_theta().graph, (0, 1), 1) == [1] * 3


def test_factor_limits_count_the_edge_ends_still_to_come():
    theta = _theta().graph  # three edges (0, 1)
    degrees = theta.degrees()
    steps = list(feynman._factors(theta.edges, degrees, (1, 0), 2, False))  # vertex 1 first
    # each factor is bound to (tail, head, tail limit, head limit)
    assert [factor.limits[:2] for factor in steps] == [(1, 0)] * 3
    assert [factor.limits[2:] for factor in steps] == [(4, 4), (2, 2), (0, 0)]


def _balanced_sum(graph, d):
    """f(graph, identity): the degree-d balanced coefficient under the
    identity vertex order, in the integer rule, as the count adds it."""
    degrees = graph.degrees()
    return feynman._balanced_sums(degrees.count(3), degrees.count(2), d).get(graph.edges, 0)


def _class_of(graph):
    """Canonical edges of a labelled graph after moving its 3-valent
    vertices to the low labels, as in its enumerate_graphs class."""
    degrees = graph.degrees()
    ranked = sorted(range(graph.vertex_count), key=lambda v: -degrees[v])
    mapping = {v: new for new, v in enumerate(ranked)}
    return canonical_form(
        FeynmanGraph(graph.vertex_count, [(mapping[u], mapping[v]) for u, v in graph.edges]))


def test_order_sum_is_the_labelled_identity_sum():
    # sum over all orders of a class = |VAut| * sum over its labelled graphs
    # of the identity-order term
    for g in (3, 4, 5, 6):
        for t, c in vertex_profiles(g):
            by_class = {}
            for graph in labelled_graphs(t, c):
                by_class.setdefault(_class_of(graph), []).append(graph)
            classes = enumerate_graphs(t, c)
            assert sorted(by_class) == [cls.graph.edges for cls in classes]
            for cls in classes:
                graph = cls.graph
                zero_x = (0,) * graph.vertex_count
                for d in (1, 2):
                    full = sum(
                        feynman._integrand(graph, order, d).coefficient(d, zero_x)
                        for order in itertools.permutations(range(graph.vertex_count))
                    )
                    labelled = sum(_balanced_sum(G, d) for G in by_class[graph.edges])
                    assert full == len(vertex_automorphisms(graph)) * labelled, (graph, d)


def test_balanced_sum_is_the_oracle_summed_over_multidegrees():
    # the one-grading integer path against the per-edge radical oracle
    for g in (3, 4, 5):
        for t, c in vertex_profiles(g):
            for graph in labelled_graphs(t, c):
                identity = tuple(range(graph.vertex_count))
                for d in (1, 2, 3):
                    oracle = sum(
                        (
                            feynman_integral(graph, identity, a).as_fraction()
                            for a in itertools.product(range(d + 1), repeat=len(graph.edges))
                            if sum(a) == d
                        ),
                        Fraction(0),
                    )
                    assert Fraction(_balanced_sum(graph, d)) == oracle, (graph, d)


def test_balanced_sum_builds_no_radicals(monkeypatch):
    built = []
    original = RadicalScalar.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    feynman._integer_propagator.cache_clear()
    monkeypatch.setattr(RadicalScalar, "__init__", counting_init)
    feynman._balanced_sums.cache_clear()
    for g in (3, 4, 5):
        for t, c in vertex_profiles(g):
            for d in (1, 2, 3):
                feynman._balanced_sums(t, c, d)
    assert built == []
    direct_cover_sum(_theta(), (0, 1), (3, 0, 0))  # the probe does count
    assert built


def test_counting_paths_run_no_canonical_form_or_automorphism_search(monkeypatch):
    graphs.edge_tree.cache_clear()
    feynman._balanced_sums.cache_clear()
    feynman._integer_propagator.cache_clear()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a counting path ran a canonical form or automorphism search")

    for module in (graphs, feynman, tropical):
        for name in ("canonical_form", "vertex_automorphisms", "automorphism_count"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    # oracle: the symmetric-group tuple count 983808 over (2*3)!! = 48
    assert generating_series_coefficient(3, 5) == 20496
    assert tropical.count_tropical(3, 5) == 20496


def test_counting_paths_build_no_graph_list(monkeypatch):
    # both pipelines walk one cached edge tree per profile and never list
    # the profile's graphs
    graphs.edge_tree.cache_clear()
    graphs.labelled_graphs.cache_clear()
    feynman._balanced_sums.cache_clear()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a counting path built a FeynmanGraph")

    monkeypatch.setattr(graphs, "FeynmanGraph", forbidden)
    # oracle: the symmetric-group count, count_twisted(2, 5, connected=True)
    assert tropical.count_tropical(2, 5) == 256
    misses = graphs.edge_tree.cache_info().misses
    assert misses == len(list(vertex_profiles(5)))
    assert generating_series_coefficient(2, 5) == 256
    assert graphs.edge_tree.cache_info().misses == misses
    assert graphs.labelled_graphs.cache_info().misses == 0


def test_counts_beyond_the_desk_grid():
    # oracles: count_tropical(4, 4) = 11456; symgroup (4, 5) tuple count
    # 122585088 over (2*4)!! = 384
    assert generating_series_coefficient(4, 4) == 11456
    assert generating_series_coefficient(4, 5) == 319232 == Fraction(122585088, 384)
    # oracle: count_tropical(4, 6) (tests/test_tropical.py)
    assert generating_series_coefficient(4, 6) == 7558784


# -- the walk over the edge tree ----------------------------------------------------


def _all_labelled(g):
    return [graph for t, c in vertex_profiles(g) for graph in labelled_graphs(t, c)]


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_walk_values_are_the_identity_integrands(g):
    # the walk against _integrand, one graph and one product chain at a time
    for graph in _all_labelled(g):
        identity = tuple(range(graph.vertex_count))
        for d in (1, 2, 3, 4):
            series = feynman._integrand(graph, identity, d)
            expected = series.coefficient(d, (0,) * len(identity))
            assert _balanced_sum(graph, d) == expected, (graph, d)


def test_walk_multiplies_each_shared_prefix_once(monkeypatch):
    products = []
    original = feynman.TruncatedSeries.__mul__

    def counting_mul(self, other):
        products.append(1)
        return original(self, other)

    feynman._balanced_sums.cache_clear()
    monkeypatch.setattr(feynman.TruncatedSeries, "__mul__", counting_mul)
    # oracle: count_tropical(3, 6)
    assert generating_series_coefficient(3, 6) == 240096
    # one product per edge of every labelled graph would be 3030; sharing
    # prefixes alone (one product per node of the edge tree) makes 1995, and
    # cutting below an empty product 1286
    assert len(products) == 1286 < sum(len(graph.edges) for graph in _all_labelled(6)) == 3030


def test_integer_propagators_are_built_once_per_key(monkeypatch):
    built = []
    original = feynman._edge_series

    def counting_series(*args):
        built.append(1)
        return original(*args)

    feynman._integer_propagator.cache_clear()
    monkeypatch.setattr(feynman, "_edge_series", counting_series)
    queries = ((3, 5), (2, 5), (3, 4), (2, 6))
    for d, g in queries:
        feynman._balanced_sums.cache_clear()
        generating_series_coefficient(d, g)
    assert len(built) == feynman._integer_propagator.cache_info().currsize > 0
    # the same queries again, walked afresh, build no propagator
    for d, g in queries:
        feynman._balanced_sums.cache_clear()
        generating_series_coefficient(d, g)
    assert len(built) == feynman._integer_propagator.cache_info().currsize


# -- prefactor and assembly --------------------------------------------------------

#: d <= 3 at g = 3..5, and the frontier points the graph sum is tested at
IDENTITY_POINTS = tuple((d, g) for g in (3, 4, 5) for d in (1, 2, 3)) + (
    (4, 4), (4, 5), (2, 6), (3, 6))


@pytest.mark.parametrize("d,g", IDENTITY_POINTS)
def test_prefactor_is_the_tropical_count_graph_by_graph(d, g):
    # per labelled graph G: the tropical multiplicities of G's decorations
    # (weight-1 two-valent vertices dropped, as tropical drops them) sum to
    # G's graph-sum term 2^(g-1) (2^g' - delta_0c) / 2^(c+1) * f(G) / prod m!(G)
    s = g - 1
    # the tropical walk's quotients, grouped by the graph they decorate
    decorations = defaultdict(list)
    for edges in tropical._enumerate_multisets(d, g):
        decorations[tuple(sorted((min(i, j), max(i, j)) for i, j, _k, _w in edges))].append(edges)
    for t, c in vertex_profiles(g):
        weight = Fraction(2 ** (g - 1) * (2 ** (t // 2 + 1) - (c == 0)), 2 ** (c + 1))
        for graph in labelled_graphs(t, c):
            tropical_side = sum(
                (tropical.quotient_multiplicity(edges, g)
                 for edges in decorations[graph.edges]
                 if 1 not in tropical._shape(edges, s).omegas.values()),
                Fraction(0))
            graph_sum_side = weight * Fraction(_balanced_sum(graph, d),
                                               multiset_automorphisms(graph.edges))
            assert tropical_side == graph_sum_side, (graph, d)


def test_prefactor_reading_is_fixed():
    assert normalization_reading() == "2^(g-1) multiplies, #Aut divides"
    assert calibrate_normalization() == normalization_reading()


def test_calibration_rejects_a_wrong_prefactor(monkeypatch):
    monkeypatch.setattr(feynman, "_assemble", lambda d, g: Fraction(-1))
    with pytest.raises(CalibrationError, match=r"\(2, 3\): graph sum -1, symgroup 16"):
        calibrate_normalization()


def test_anchor_points_reproduce_their_targets():
    for d, g in ANCHOR_POINTS:
        if g > 2:
            assert generating_series_coefficient(d, g) == count_twisted(
                d, g, connected=True
            ).value


def test_held_out_counts():
    # points off the anchors; oracle: the symmetric group and tropical
    # pipelines agree on these values
    assert generating_series_coefficient(3, 3) == 132
    assert generating_series_coefficient(3, 4) == 1464
    assert generating_series_coefficient(1, 5) == 0
    assert generating_series_coefficient(2, 5) == 256


def test_generating_series_guards():
    with pytest.raises(ValueError):
        generating_series_coefficient(2, 2)
    with pytest.raises(ValueError):
        generating_series_coefficient(0, 3)


def test_series_export_shape():
    out = generating_series_export(3, 3)
    assert out["g"] == 3
    assert out["coefficients"] == [(1, "0"), (2, "16"), (3, "132")]
    assert out["normalization_reading"] == "2^(g-1) multiplies, #Aut divides"
    with pytest.raises(ValueError):
        generating_series_export(3, 0)
    # the graph sum needs g > 2, although tropical counts 2 covers at (2, 2)
    with pytest.raises(ValueError):
        generating_series_export(2, 3)
    with pytest.raises(ValueError):
        generating_series_export(1, 2)
