"""Acceptance gate: the nine cross-validation criteria, one test each.

Each test prints a single "criterion N: PASS" line (visible with -s, or in
the failure report otherwise).  Every comparison is exact rational
arithmetic; the only tolerances anywhere are the two 5-second wall-clock
bounds on the golden-value computations.
"""

import itertools
import time
from fractions import Fraction
from math import comb, factorial

from twisted_hurwitz import perms
from twisted_hurwitz.factorizations import count_twisted
from twisted_hurwitz.feynman import (
    ANCHOR_POINTS,
    _vertex_profiles,
    feynman_integral,
    generating_series_coefficient,
)
from twisted_hurwitz.fock import (
    apply_alpha,
    aut_count,
    b,
    elliptic_disconnected,
    inner_product,
    matrix_element,
    partitions,
    parts_product,
)
from twisted_hurwitz.graphs import enumerate_graphs
from twisted_hurwitz.tropical import (
    cover_multiplicity,
    count_tropical,
    enumerate_quotient_covers,
    preimage_details,
    verify_preimage_formula,
)


def test_criterion_1_golden_value_symmetric_group():
    start = time.perf_counter()
    result = count_twisted(2, 3, connected=True, threads=1)
    elapsed = time.perf_counter() - start
    assert result.value == Fraction(16)
    assert result.tuple_count == 128
    assert elapsed < 5.0
    print("criterion 1: PASS - count_twisted(2,3,connected) = 16 (%.2f s)" % elapsed)


def test_criterion_2_golden_value_tropical():
    start = time.perf_counter()
    covers = enumerate_quotient_covers(2, 3)
    multiplicities = sorted(cover_multiplicity(cv).value for cv in covers)
    total = count_tropical(2, 3)
    elapsed = time.perf_counter() - start
    assert total == Fraction(16)
    assert multiplicities == [2, 2, 4, 4, 4]
    assert elapsed < 5.0
    print(
        "criterion 2: PASS - count_tropical(2,3) = 16, multiplicities {4,4,4,2,2} "
        "(%.2f s)" % elapsed
    )


def test_criterion_3_tropical_equals_symmetric_group():
    points = [(d, g) for d in (1, 2, 3) for g in (2, 3, 4, 5)]
    for d, g in points:
        assert count_tropical(d, g) == count_twisted(d, g, connected=True).value, (d, g)
    print(
        "criterion 3: PASS - tropical == symmetric-group (connected) on all %d "
        "points of {1,2,3}x{2,3,4,5}" % len(points)
    )


def test_criterion_4_fock_equals_symmetric_group():
    points = [(d, g) for d in (1, 2, 3) for g in (1, 2, 3, 4, 5)]
    for d, g in points:
        assert (
            elliptic_disconnected(d, g)
            == count_twisted(d, g, connected=False).value
        ), (d, g)
    print(
        "criterion 4: PASS - operator formalism == symmetric-group "
        "(disconnected) on all %d points of {1,2,3}x{1..5}" % len(points)
    )


def test_criterion_5_feynman_equals_symmetric_group_held_out():
    # the prefactor is derived, not fitted, so the former calibration
    # anchors are evidence like every other point
    points = [(d, g) for d in (1, 2, 3) for g in (3, 4, 5)]
    assert set(ANCHOR_POINTS) <= set(points)
    for d, g in points:
        assert (
            generating_series_coefficient(d, g)
            == count_twisted(d, g, connected=True).value
        ), (d, g)
    print(
        "criterion 5: PASS - graph sum == symmetric-group (connected) on all "
        "%d points of {1,2,3}x{3,4,5}, anchors %s included"
        % (len(points), sorted(ANCHOR_POINTS))
    )


def test_criterion_6_preimage_formula_everywhere():
    figure_edges = ((0, 1, 0, 1), (0, 1, 0, 1), (1, 0, 1, 2))
    figure_seen = False
    checked = 0
    for d in (1, 2, 3):
        for g in (2, 3, 4, 5):
            for cover in enumerate_quotient_covers(d, g):
                if len(cover.edges) > 12:
                    continue
                assert verify_preimage_formula(cover), cover
                checked += 1
                if (d, g) == (2, 3) and cover.edges == figure_edges:
                    figure_seen = True
                    details = preimage_details(cover)
                    # the worked genus-2 configuration: 1/2 + 1/4 = (2^2-1)/(2*2)
                    assert sorted(a for _s, a in details["classes"]) == [2, 4]
                    assert details["lift_sum"] == Fraction(3, 4)
                    assert details["closed_form"] == Fraction(2**2 - 1, 2 * 2)
    assert figure_seen
    print(
        "criterion 6: PASS - preimage count formula verified on %d covers "
        "(d,g) <= (3,5), including the genus-2 figure configuration" % checked
    )


def test_criterion_7_fock_axioms():
    basis = [mu for n in range(7) for mu in partitions(n)]
    modes = [n for n in range(-5, 6) if n]
    for n, m in itertools.product(modes, repeat=2):
        for mu in basis:
            v = b(mu)
            lhs = apply_alpha(n, apply_alpha(m, v)) + apply_alpha(
                m, apply_alpha(n, v)
            ).scale(-1)
            expected = v.scale(n) if n == -m else v.scale(0)
            assert lhs == expected, (n, m, mu)
    for n in modes:
        for mu in basis:
            for nu in basis:
                assert inner_product(apply_alpha(n, b(mu)), b(nu)) == inner_product(
                    b(mu), apply_alpha(-n, b(nu))
                ), (n, mu, nu)
    for mu in basis:
        assert inner_product(b(mu), b(mu)) == parts_product(mu) * aut_count(mu)
    for mu in basis:
        for nu in basis:
            if sum(mu) != sum(nu):
                for power in (0, 1, 2):
                    assert not matrix_element(mu, nu, power), (mu, nu, power)
    print(
        "criterion 7: PASS - commutator, adjointness, norm and "
        "energy-conservation axioms over |n|,|m| <= 5 and |mu| <= 6"
    )


def test_criterion_8_integrals_are_rational():
    checked = 0
    for g in (3, 4, 5):
        for d in (1, 2, 3):
            for t, c in _vertex_profiles(g):
                for cls in enumerate_graphs(t, c):
                    graph = cls.graph
                    r = len(graph.edges)
                    for order in itertools.permutations(range(graph.vertex_count)):
                        for a in itertools.product(range(d + 1), repeat=r):
                            if sum(a) != d:
                                continue
                            value = feynman_integral(cls, order, a)
                            # rational means supported on radicand 1 only
                            value.as_fraction()
                            checked += 1
    print(
        "criterion 8: PASS - %d balanced-coefficient extractions over the "
        "g in {3,4,5}, d <= 3 grid are all rational" % checked
    )


def test_criterion_9_group_cardinalities():
    for d in (1, 2, 3, 4):
        tau = perms.pairing_involution(d)
        brute = sum(
            1
            for p in perms.symmetric_group(2 * d)
            if perms.compose(p, tau) == perms.compose(tau, p)
        )
        assert brute == 2**d * factorial(d)
        assert len(perms.hyperoctahedral_group(d)) == brute
    for d in (1, 2, 3, 4, 5):
        assert len(perms.admissible_transpositions(d)) == comb(2 * d, 2) - d
    print(
        "criterion 9: PASS - |B_d| = 2^d d! by enumeration (d <= 4); "
        "admissible transposition counts C(2d,2) - d (d <= 5)"
    )
