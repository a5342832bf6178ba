"""Symmetric-group pipeline: tuple streams, counts, budgets.

Frozen values marked "oracle:" were recomputed by an independent pipeline
(tropical enumeration and/or operator formalism); the cross-checks
themselves run in test_acceptance.py.
"""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from twisted_hurwitz import factorizations, perms
from twisted_hurwitz.factorizations import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    _alpha_lookup,
    _sigma_orbits,
    _twisted_tables,
    count_classical,
    count_twisted,
    enumerate_twisted_tuples,
    resolve_budget,
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
    # B_d acting on B~_d by conjugation; each orbit's size is |B_d| over the
    # order of its representative's centralizer in B_d
    for d, count, total in [(3, 3, 15), (4, 5, 105)]:
        _, _, alphas, sigmas = _twisted_tables(d)
        orbits = _sigma_orbits(d)
        assert len(orbits) == count
        assert sum(size for _, size in orbits) == len(sigmas) == total
        for sigma, size in orbits:
            centralizer = _alpha_lookup(sigma, alphas)[bytes(sigma)]
            assert size * len(centralizer) == len(alphas) == 2**d * factorial(d)
    assert sorted(size for _, size in _sigma_orbits(3)) == [1, 6, 8]


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


def test_budget_projection_and_override(monkeypatch):
    monkeypatch.delenv("TH_BUDGET", raising=False)
    assert resolve_budget() == DEFAULT_BUDGET
    assert resolve_budget(123) == 123
    monkeypatch.setenv("TH_BUDGET", "777")
    assert resolve_budget() == 777
    assert resolve_budget(123) == 123  # explicit argument still wins
    monkeypatch.setenv("TH_BUDGET", "many")
    with pytest.raises(ValueError):
        resolve_budget()


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
        group, swaps = factorizations._classical_tables(d)
        for g in (1, 2, 3, 4):
            with pytest.raises(BudgetExceeded) as twisted:
                count_twisted(d, g, budget=-1)
            assert twisted.value.projected == len(sigmas) * len(etas) ** (g - 1) * len(alphas)
            with pytest.raises(BudgetExceeded) as classical:
                count_classical(d, g, budget=-1)
            assert classical.value.projected == (
                len(group) ** 2 * max(len(swaps), 1) ** (2 * g - 2)
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


def test_budget_env_respected(monkeypatch):
    monkeypatch.setenv("TH_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        count_twisted(2, 3)
    monkeypatch.setenv("TH_BUDGET", str(10**9))
    assert count_twisted(2, 3).value == 16


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
