"""Graph-sum pipeline: propagators, balanced-coefficient extraction, assembly."""

import itertools
from fractions import Fraction

import pytest

from twisted_hurwitz import feynman, graphs, tropical
from twisted_hurwitz.factorizations import count_twisted
from twisted_hurwitz.feynman import (
    ANCHOR_POINTS,
    CalibrationError,
    NormalizationReading,
    calibrate_normalization,
    direct_cover_sum,
    feynman_integral,
    generating_series_coefficient,
    generating_series_export,
    integer_coefficients,
    normalization_reading,
    oriented_edges,
    propagator,
    propagator_coefficient,
)
from twisted_hurwitz.graphs import (
    canonical_form,
    enumerate_graphs,
    labelled_graphs,
    relabel,
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
    assert series.coefficient((0, 0, 0), (1, -1)) == 1
    assert series.coefficient((0, 0, 0), (2, -2)) == 2
    assert series.coefficient((0, 0, 0), (-1, 1)) == 0
    # q^1: only w = 1, both orientations
    assert series.coefficient((1, 0, 0), (1, -1)) == 1
    assert series.coefficient((1, 0, 0), (-1, 1)) == 1
    # q^2: divisors 1 and 2
    assert series.coefficient((2, 0, 0), (2, -2)) == 2
    assert series.coefficient((2, 0, 0), (-1, 1)) == 1


def test_propagator_drops_weight_one_at_twovalent_ends():
    edge = oriented_edges(_banana().graph, (0, 1))[0]
    series = propagator(edge, 2)
    assert series.coefficient((0, 0), (1, -1)) == 0
    assert series.coefficient((1, 0), (1, -1)) == 0
    assert series.coefficient((1, 0), (-1, 1)) == 0
    assert series.coefficient((0, 0), (2, -2)) == 2
    assert series.coefficient((2, 0), (2, -2)) == 2


def test_propagator_q_part_is_orientation_symmetric():
    for graph in (_theta().graph, _banana().graph):
        for edge in oriented_edges(graph, tuple(range(graph.vertex_count))):
            series = propagator(edge, 3)
            for (qexp, xexp), coef in series.terms.items():
                if sum(qexp) >= 1:
                    mirror = tuple(-x for x in xexp)
                    assert series.coefficient(qexp, mirror) == coef


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


def _graph_classes(g):
    for t, c in vertex_profiles(g):
        yield from enumerate_graphs(t, c)


def test_integer_rule_matches_the_radical_oracle():
    # every x^0 coefficient, per q-exponent vector, under every vertex order
    checked = 0
    for g in (3, 4, 5):
        for cls in _graph_classes(g):
            graph = cls.graph
            coefficient = integer_coefficients(graph)
            for order in itertools.permutations(range(graph.vertex_count)):
                for cap in (1, 2, 3):
                    radical = feynman._integrand(graph, order, cap)
                    integer = feynman._integrand(graph, order, cap, coefficient)
                    assert integer.terms.keys() == radical.terms.keys()
                    for key, coef in integer.terms.items():
                        assert type(coef) is int
                        assert radical.terms[key] == coef
                        checked += 1
    assert checked > 300


def test_integer_rule_designates_one_edge_per_twovalent_vertex():
    graph = enumerate_graphs(0, 3)[0].graph  # triangle of 2-valent vertices
    edges = oriented_edges(graph, (0, 1, 2))
    coefficient = integer_coefficients(graph)
    assert [e.index for e in edges] == [0, 1, 2]
    # edges (0,1), (0,2), (1,2): vertices 0 and 1 designate edge 0, 2 edge 1
    assert [coefficient(e, 3) for e in edges] == [3 * 2 * 2, 3 * 2, 3]
    assert [coefficient(e, 1) for e in edges] == [0, 0, 0]
    theta = _theta().graph
    assert [integer_coefficients(theta)(e, 1) for e in oriented_edges(theta, (0, 1))] == [1] * 3


def _class_of(graph):
    """Canonical edges of a labelled graph after moving its 3-valent
    vertices to the low labels, as in its enumerate_graphs class."""
    degrees = graph.degrees()
    ranked = sorted(range(graph.vertex_count), key=lambda v: -degrees[v])
    mapping = {v: new for new, v in enumerate(ranked)}
    return canonical_form(relabel(graph, mapping))


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
                coefficient = integer_coefficients(graph)
                for d in (1, 2):
                    full = sum(
                        coef
                        for order in itertools.permutations(range(graph.vertex_count))
                        for qexp, coef in feynman._integrand(
                            graph, order, d, coefficient
                        ).x_constant_part().items()
                        if sum(qexp) == d
                    )
                    labelled = sum(feynman._balanced_sum(G, d) for G in by_class[graph.edges])
                    assert full == len(vertex_automorphisms(graph)) * labelled, (graph, d)


def test_balanced_sum_builds_no_radicals(monkeypatch):
    built = []
    original = RadicalScalar.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(RadicalScalar, "__init__", counting_init)
    for g in (3, 4, 5):
        for t, c in vertex_profiles(g):
            for graph in labelled_graphs(t, c):
                for d in (1, 2, 3):
                    feynman._balanced_sum.__wrapped__(graph, d)
    assert built == []
    direct_cover_sum(_theta(), (0, 1), (3, 0, 0))  # the probe does count
    assert built


def test_counting_paths_run_no_canonical_form_or_automorphism_search(monkeypatch):
    normalization_reading()  # calibrate first: its rejected reading may search
    graphs.labelled_graphs.cache_clear()
    feynman._balanced_sum.cache_clear()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a counting path ran a canonical form or automorphism search")

    for module in (graphs, feynman, tropical):
        for name in ("canonical_form", "vertex_automorphisms", "automorphism_count"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    # oracle: the symmetric-group tuple count 983808 over (2*3)!! = 48
    assert generating_series_coefficient(3, 5) == 20496
    assert tropical.count_tropical(3, 5) == 20496


def test_counts_beyond_the_desk_grid():
    # oracles: count_tropical(4, 4) = 11456; symgroup (4, 5) tuple count
    # 122585088 over (2*4)!! = 384
    assert generating_series_coefficient(4, 4) == 11456
    assert generating_series_coefficient(4, 5) == 319232 == Fraction(122585088, 384)


# -- calibration and assembly ------------------------------------------------------


def test_calibration_selects_one_reading():
    reading = calibrate_normalization()
    assert reading == NormalizationReading(
        genus_factor_exponent=1, automorphism_exponent=-1
    )
    assert reading.describe() == "2^(g-1) multiplies, #Aut divides"
    assert normalization_reading() == reading.describe()


def test_calibration_needs_discriminating_anchors():
    # degree-1 counts vanish for every reading, so they cannot discriminate
    with pytest.raises(CalibrationError, match="4 readings"):
        calibrate_normalization(anchors=((1, 3), (1, 4)))


def test_anchor_points_reproduce_their_targets():
    for d, g in ANCHOR_POINTS:
        if g > 2:
            assert generating_series_coefficient(d, g) == count_twisted(
                d, g, connected=True
            ).value


def test_held_out_counts():
    # these (d, g) played no role in fixing the prefactor; oracle: symmetric
    # group and tropical pipelines agree on these values
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
