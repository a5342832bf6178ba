"""Symmetric-group pipeline: tuple streams, counts, budgets.

Frozen values marked "oracle:" were recomputed by an independent pipeline
(tropical enumeration and/or operator formalism); the cross-checks
themselves run in test_acceptance.py.
"""

import concurrent.futures
import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from twisted_hurwitz import factorizations, perms
from twisted_hurwitz.feynman import generating_series_coefficient
from twisted_hurwitz.fock import elliptic_disconnected, partitions
from twisted_hurwitz.tropical import count_tropical
from twisted_hurwitz.factorizations import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    _alpha_lookup,
    _sigma_orbits,
    _twisted_tables,
    count_classical,
    count_twisted,
    enumerate_twisted_tuples,
)


def P(spec, n=4):
    return perms.from_cycles(n, spec)


# -- worked example: the alpha fiber ------------------------------------------


def test_alpha_fiber_of_fixed_monodromy():
    # with sigma = (1 4)(2 3), eta_1 = (1 4), eta_2 = (1 2) there are exactly
    # four completing alphas
    sigma, eta1, eta2 = P("(1 4)(2 3)"), P("(1 4)"), P("(1 2)")
    alphas = {
        a
        for s, etas, a in enumerate_twisted_tuples(2, 3)
        if s == sigma and etas == (eta1, eta2)
    }
    assert alphas == {P("(2 4)"), P("(1 2 3 4)"), P("(1 3)"), P("(1 4 3 2)")}


def test_stream_matches_count_and_is_deterministic():
    tuples = list(enumerate_twisted_tuples(2, 3))
    assert len(tuples) == 128
    assert tuples == list(enumerate_twisted_tuples(2, 3))
    # the count_twisted kernel agrees with the generator, whose transitivity
    # check goes through perms.acts_transitively instead
    assert count_twisted(2, 3).tuple_count == 128
    for d, g in [(1, 2), (2, 1), (2, 2), (3, 2)]:
        for connected in (True, False):
            stream = list(enumerate_twisted_tuples(d, g, connected=connected))
            res = count_twisted(d, g, connected=connected)
            assert len(stream) == res.tuple_count
            assert len(set(stream)) == len(stream)


def test_stream_members_satisfy_defining_equation():
    d, g = 2, 3
    tau = perms.pairing_involution(d)
    adm = set(perms.admissible_transpositions(d))
    twist = set(perms.twist_admissible_set(d))
    hyper = set(perms.hyperoctahedral_group(d))
    for sigma, etas, alpha in enumerate_twisted_tuples(d, g):
        assert sigma in twist and alpha in hyper
        assert all(eta in adm for eta in etas)
        lhs = sigma
        for eta in etas:  # eta_1 applied innermost
            lhs = perms.compose(eta, perms.compose(lhs, perms.conjugate(eta, tau)))
        assert lhs == perms.conjugate(sigma, alpha)
        gens = [sigma, alpha, *etas, *(perms.conjugate(e, tau) for e in etas)]
        assert perms.acts_transitively(gens, 2 * d)


# -- frozen values -------------------------------------------------------------


CONNECTED = {
    (1, 1): Fraction(1, 2),
    (1, 2): Fraction(0),
    (1, 3): Fraction(0),
    (2, 1): Fraction(3, 4),
    (2, 2): Fraction(2),
    (2, 3): Fraction(16),  # published value for this case
    (2, 4): Fraction(56),  # oracle: tropical pipeline
    (3, 2): Fraction(6),  # oracle: tropical pipeline
    (3, 3): Fraction(132),  # oracle: tropical + graph-sum pipelines
}

DISCONNECTED = {
    (1, 1): Fraction(1),
    (1, 2): Fraction(0),
    (2, 1): Fraction(2),
    (2, 2): Fraction(2),
    (2, 3): Fraction(20),  # oracle: operator formalism
    (3, 1): Fraction(3),
    (3, 2): Fraction(8),  # oracle: operator formalism
    (3, 3): Fraction(184),  # oracle: operator formalism
}


@pytest.mark.parametrize("d,g", sorted(CONNECTED))
def test_connected_values(d, g):
    res = count_twisted(d, g, connected=True)
    assert res.value == CONNECTED[(d, g)]
    assert res.normalization == 2**d * factorial(d)
    assert res.value == Fraction(res.tuple_count, res.normalization)


@pytest.mark.parametrize("d,g", sorted(DISCONNECTED))
def test_disconnected_values(d, g):
    assert count_twisted(d, g, connected=False).value == DISCONNECTED[(d, g)]


def test_disconnected_dominates_connected():
    for d, g in itertools.product((1, 2, 3), (1, 2, 3)):
        disc = count_twisted(d, g, connected=False).tuple_count
        conn = count_twisted(d, g, connected=True).tuple_count
        assert disc >= conn


def test_threads_do_not_change_the_answer():
    one = count_twisted(2, 3, threads=1)
    two = count_twisted(2, 3, threads=2)
    assert (one.tuple_count, one.value) == (two.tuple_count, two.value)



def test_count_runs_in_one_process(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("count_twisted started a process pool")

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", refuse)
    assert count_twisted(3, 3, threads=4).value == CONNECTED[(3, 3)]


# -- the layered count against independent paths --------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("connected", [True, False])
def test_count_matches_tuple_stream(d, g, connected):
    # the stream walks every transposition sequence for every sigma and
    # checks transitivity with perms.acts_transitively
    stream = sum(1 for _ in enumerate_twisted_tuples(d, g, connected=connected))
    assert count_twisted(d, g, connected=connected).tuple_count == stream


# tuple counts of the depth-first walk over every sigma and transposition
# sequence, (connected, disconnected)
WALK_COUNTS = {
    (3, 5): (983808, 1058304),
    (4, 3): (196608, 322560),
    (4, 4): (4399104, 5050368),
}


@pytest.mark.parametrize("d,g", sorted(WALK_COUNTS))
def test_frozen_walk_counts(d, g):
    got = tuple(count_twisted(d, g, connected=c).tuple_count for c in (True, False))
    assert got == WALK_COUNTS[(d, g)]


def test_sigma_orbits():
    # oracle: the orbits found by conjugating every sigma by all of B_d; each
    # orbit's size is |B_d| over the order of its representative's
    # centralizer in B_d, and its cycle type is lambda u lambda
    for d in (1, 2, 3, 4, 5):
        _, _, alphas, sigmas = _twisted_tables(d)
        scan, seen = [], set()
        for sigma in sigmas:
            if sigma not in seen:
                orbit = {perms.conjugate(sigma, beta) for beta in alphas}
                seen |= orbit
                scan.append(len(orbit))
        orbits = _sigma_orbits(d)
        assert sorted(size for _, size in orbits) == sorted(scan)
        assert sum(size for _, size in orbits) == len(sigmas)
        assert [perms.cycle_type(sigma) for sigma, _ in orbits] == [
            tuple(sorted(lam + lam, reverse=True)) for lam in partitions(d)
        ]
        members = set(sigmas)
        for sigma, size in orbits:
            assert sigma in members
            centralizer = _alpha_lookup(sigma, alphas)[bytes(sigma)]
            assert size * len(centralizer) == len(alphas) == 2**d * factorial(d)
    assert sorted(size for _, size in _sigma_orbits(3)) == [1, 6, 8]


def test_connected_and_disconnected_share_one_layer():
    count_twisted(3, 4, connected=True)
    misses = factorizations._layer.cache_info().misses
    count_twisted(3, 4, connected=False)
    assert factorizations._layer.cache_info().misses == misses


def test_layer_right_factor_is_a_function_of_the_left():
    # the layer keeps one right factor per left factor E: tau E^{-1} tau under
    # the twisted moves, the identity under the classical ones
    for d in (1, 2, 3):
        tau = perms.pairing_involution(d)
        etas, eta_taus, _, _ = _twisted_tables(d)
        classical = factorizations._classical_tables(d)[1]
        for depth in range(5):
            layer = factorizations._layer(2 * d, factorizations._moves(etas, eta_taus), depth)
            for left, (right, _) in layer.items():
                assert tuple(right) == perms.conjugate(perms.inverse(tuple(left)), tau)
            for right, _ in factorizations._layer(d, classical, depth).values():
                assert right == bytes(range(d))


def test_per_degree_data_is_built_once():
    # the tables are tuples, so the moves are cached by value and the
    # alphas' bytes by the table's identity: every sigma of a degree, and
    # every later query, reuses them
    tables = _twisted_tables(3)
    assert all(type(table) is tuple for table in tables)
    count_twisted(3, 3)
    moves = factorizations._moves.cache_info().misses
    groups = len(factorizations._GROUP_BYTES)
    count_twisted(3, 4)
    count_twisted(3, 5, connected=False)
    assert factorizations._moves.cache_info().misses == moves
    assert len(factorizations._GROUP_BYTES) == groups


class _CountingTuple(tuple):
    """A tuple that counts the calls of its __hash__."""

    hashes = 0

    def __hash__(self):
        _CountingTuple.hashes += 1
        return super().__hash__()


def test_repeat_group_bytes_calls_hash_nothing():
    # a repeat call, once per sigma orbit, finds the group's bytes without
    # hashing the whole group
    alphas = _CountingTuple(_twisted_tables(3)[2])
    sigma = _twisted_tables(3)[3][0]
    first = factorizations._group_bytes(alphas)
    lookup = _alpha_lookup(sigma, alphas)
    _CountingTuple.hashes = 0
    assert factorizations._group_bytes(alphas) is first
    assert _alpha_lookup(sigma, alphas) == lookup
    assert _CountingTuple.hashes == 0


def test_frontier_values_agree_with_a_second_pipeline():
    # each oracle is an independent pipeline, run here beside the pinned value
    assert count_twisted(5, 3, budget=10**10).value == 1360 == count_tropical(5, 3)
    # oracle: the graph sum, which CI also checks at (4, 6)
    assert count_twisted(4, 6, budget=10**12).value == 7558784
    assert generating_series_coefficient(4, 6) == 7558784
    disconnected = count_twisted(5, 5, connected=False, budget=10**13).value
    assert disconnected == 2980384 == elliptic_disconnected(5, 5)


def _union_find_labels(n, pairs):
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        parent[root(a)] = root(b)
    least = {}
    for x in range(n):
        least.setdefault(root(x), x)
    return bytes(least[root(x)] for x in range(n))


@st.composite
def point_pairs(draw):
    n = draw(st.integers(1, 12))
    point = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(point, point), max_size=16))


@given(point_pairs())
def test_join_matches_union_find(case):
    # the bytes labels give the union-find partition, each block labelled by
    # its least point, so one block is exactly bytes(n)
    n, pairs = case
    join = factorizations._join
    labels = join(bytes(range(n)), pairs)
    assert labels == _union_find_labels(n, pairs)
    half = len(pairs) // 2
    assert join(join(bytes(range(n)), pairs[:half]), pairs[half:]) == labels
    assert (labels == bytes(n)) == (len(set(labels)) == 1)


# -- equivariance --------------------------------------------------------------


def test_tuple_set_is_stable_under_hyperoctahedral_conjugation():
    d, g = 2, 2
    tau = perms.pairing_involution(d)
    tuples = set(enumerate_twisted_tuples(d, g))
    for beta in perms.hyperoctahedral_group(d):
        assert perms.compose(beta, tau) == perms.compose(tau, beta)
        for sigma, etas, alpha in tuples:
            image = (
                perms.conjugate(sigma, beta),
                tuple(perms.conjugate(e, beta) for e in etas),
                perms.conjugate(alpha, beta),
            )
            assert image in tuples


# -- budget handling -----------------------------------------------------------


def test_omitted_budget_is_the_default():
    with pytest.raises(BudgetExceeded) as exc:
        count_twisted(8, 2)
    assert exc.value.budget == DEFAULT_BUDGET
    assert exc.value.projected > DEFAULT_BUDGET


def test_omitted_budget_is_the_default_for_every_search():
    with pytest.raises(BudgetExceeded) as classical:
        count_classical(8, 2)
    with pytest.raises(BudgetExceeded) as tuples:
        list(enumerate_twisted_tuples(8, 2))
    for exc in (classical, tuples):
        assert exc.value.budget == DEFAULT_BUDGET
        assert exc.value.projected > DEFAULT_BUDGET


def test_budget_exceeded_reports_projection():
    with pytest.raises(BudgetExceeded) as exc:
        count_twisted(3, 4, budget=10)
    assert exc.value.projected > 10
    assert exc.value.budget == 10
    with pytest.raises(BudgetExceeded):
        list(enumerate_twisted_tuples(3, 4, budget=10))
    with pytest.raises(BudgetExceeded):
        count_classical(3, 3, budget=10)


def test_budget_projections_use_closed_forms():
    # the projections (some are 0, so budget -1 refuses all) equal the
    # sizes of the tables they stand in for
    for d in range(1, 6):
        etas, _, alphas, sigmas = _twisted_tables(d)
        group, moves = factorizations._classical_tables(d)  # one move per swap
        for g in (1, 2, 3, 4):
            with pytest.raises(BudgetExceeded) as twisted:
                count_twisted(d, g, budget=-1)
            assert twisted.value.projected == len(sigmas) * len(etas) ** (g - 1) * len(alphas)
            with pytest.raises(BudgetExceeded) as classical:
                count_classical(d, g, budget=-1)
            assert classical.value.projected == (
                len(group) ** 2 * max(len(moves), 1) ** (2 * g - 2)
            )


def test_budget_refusal_builds_no_tables(monkeypatch):
    def no_tables(d):
        raise AssertionError("a refused query built the degree-%d tables" % d)

    monkeypatch.setattr(factorizations, "_twisted_tables", no_tables)
    monkeypatch.setattr(factorizations, "_classical_tables", no_tables)
    for g in (2, 3):
        with pytest.raises(BudgetExceeded):
            count_twisted(8, g, budget=10)
        with pytest.raises(BudgetExceeded):
            list(enumerate_twisted_tuples(8, g, budget=10))
        with pytest.raises(BudgetExceeded):
            count_classical(8, g, budget=10)


def test_rejects_bad_arguments():
    for bad in [(0, 1), (1, 0), (-2, 3)]:
        with pytest.raises(ValueError):
            count_twisted(*bad)
        with pytest.raises(ValueError):
            count_classical(*bad)


# -- classical counterpart -------------------------------------------------------


def test_classical_small_values():
    assert count_classical(1, 1).value == 1
    # oracle: hand count of commuting pairs in S_2 -- (e,e),(e,s),(s,e),(s,s),
    # of which all but (e,e) generate a transitive subgroup
    assert count_classical(2, 1, connected=True).value == Fraction(3, 2)
    assert count_classical(2, 1, connected=False).value == 2
    # oracle: hand count of commuting transitive pairs in S_3 (8 of 18)
    assert count_classical(3, 1, connected=True).value == Fraction(4, 3)
    assert count_classical(3, 1, connected=False).value == 3


# tuple counts of the classical count over every sigma of S_d, before its
# classes came from the partitions of d, (connected, disconnected)
CLASSICAL_COUNTS = {
    (1, 1): (1, 1), (1, 2): (0, 0), (1, 3): (0, 0),
    (2, 1): (3, 4), (2, 2): (4, 4), (2, 3): (4, 4),
    (3, 1): (8, 18), (3, 2): (96, 108), (3, 3): (960, 972),
    (4, 1): (42, 120), (4, 2): (1440, 1920), (4, 3): (58752, 62976),
}


def test_classical_classes_and_frozen_counts():
    for d in (1, 2, 3, 4):
        classes = factorizations._classes(d)
        assert [perms.cycle_type(pi) for _, pi, _ in classes] == list(partitions(d))
        assert sum(size for _, _, size in classes) == factorial(d)
    got = {
        (d, g): tuple(count_classical(d, g, connected=c).tuple_count for c in (True, False))
        for d, g in CLASSICAL_COUNTS
    }
    assert got == CLASSICAL_COUNTS


def test_classical_matches_bruteforce_oracle():
    # oracle: direct enumeration over all (sigma, tau_1, tau_2, alpha)
    d, g = 2, 2
    group = perms.symmetric_group(d)
    swaps = [perms.transposition(d, 0, 1)]
    hits = 0
    for sigma, t1, t2, alpha in itertools.product(group, swaps, swaps, group):
        lhs = perms.compose(t2, perms.compose(t1, sigma))
        if lhs == perms.conjugate(sigma, alpha) and perms.acts_transitively(
            [sigma, t1, t2, alpha], d
        ):
            hits += 1
    res = count_classical(d, g, connected=True)
    assert res.tuple_count == hits
    assert res.value == Fraction(hits, factorial(d))
