"""Permutation layer: composition convention, tau, and the three subsets."""

import itertools
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from twisted_hurwitz import perms


def small_perm(n):
    return st.permutations(range(n)).map(tuple)


# -- basics -----------------------------------------------------------------


def test_compose_is_right_to_left():
    p = perms.from_cycles(3, "(1 2)")
    q = perms.from_cycles(3, "(2 3)")
    # (p*q)(x) = p(q(x)): 3 -> 2 -> 1
    assert perms.compose(p, q)[2] == 0
    assert perms.compose(p, q) == perms.from_cycles(3, "(1 2 3)")


@given(small_perm(5), small_perm(5))
def test_compose_inverse_identity(p, q):
    assert perms.compose(p, perms.inverse(p)) == perms.identity(5)
    assert perms.inverse(perms.compose(p, q)) == perms.compose(
        perms.inverse(q), perms.inverse(p)
    )


@given(small_perm(5), small_perm(5))
def test_conjugate_matches_definition(p, by):
    direct = perms.compose(by, perms.compose(p, perms.inverse(by)))
    assert perms.conjugate(p, by) == direct


def test_from_cycles_and_back():
    p = perms.from_cycles(4, "(1 4)(2 3)")
    assert p == (3, 2, 1, 0)
    assert perms.cycles_str(p) == "(1 4)(2 3)"
    # digit shorthand reads the same way
    assert perms.from_cycles(4, "(14)(23)") == p
    assert perms.cycles_str(perms.identity(3)) == "e"
    assert perms.cycle_type(perms.from_cycles(6, "(1 2 3)(4 5)")) == (3, 2, 1)


def test_from_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        perms.from_cycles(3, "(1 4)")
    with pytest.raises(ValueError):
        perms.from_cycles(4, "(1 2)(2 3)")


# -- tau and the subgroups ----------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pairing_involution(d):
    tau = perms.pairing_involution(d)
    assert perms.compose(tau, tau) == perms.identity(2 * d)
    assert all(tau[i] != i for i in range(2 * d))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hyperoctahedral_equals_centralizer_bruteforce(d):
    # oracle: filter all of S_{2d} by commuting with tau
    tau = perms.pairing_involution(d)
    brute = {
        p
        for p in perms.symmetric_group(2 * d)
        if perms.compose(p, tau) == perms.compose(tau, p)
    }
    group = perms.hyperoctahedral_group(d)
    assert set(group) == brute
    assert len(group) == 2**d * factorial(d)
    assert all(perms.is_in_hyperoctahedral(p, d) for p in group)


def test_twist_symmetric_inverts_under_tau():
    # membership chain: twist-admissible => twist-symmetric => tau-conjugate
    # to inverse; oracle for the matchings construction: C~ filtered by the
    # no-self-paired-cycle condition
    sizes = []
    for d in (1, 2, 3, 4, 5):
        tau = perms.pairing_involution(d)
        sym = perms.twist_symmetric_set(d)
        sizes.append(len(set(sym)))
        for p in sym:
            assert perms.conjugate(p, tau) == perms.inverse(p)
        assert perms.twist_admissible_set(d) == [
            p for p in sym if not perms.has_self_paired_cycle(p, d)
        ]
    assert sizes == [2, 10, 76, 764, 9496]  # involutions of S_2d


def test_pairing_predicates_refuse_a_permutation_off_2d_points():
    # p must act on exactly the 2d points that tau pairs
    assert perms.has_self_paired_cycle((1, 0), 1)
    assert not perms.has_self_paired_cycle((1, 0, 3, 2), 2)
    for p, d in (((1, 0), 2), (tuple(range(6)), 2)):
        with pytest.raises(ValueError, match="expected 4"):
            perms.has_self_paired_cycle(p, d)
        with pytest.raises(ValueError, match="expected 4"):
            perms.is_in_hyperoctahedral(p, d)


def test_twist_admissible_sizes():
    # oracle: direct filter of S_{2d} by the two defining conditions
    sizes = {}
    for d in (1, 2, 3):
        tau = perms.pairing_involution(d)
        brute = [
            p
            for p in perms.symmetric_group(2 * d)
            if perms.conjugate(p, tau) == perms.inverse(p)
            and not perms.has_self_paired_cycle(p, d)
        ]
        assert sorted(brute) == sorted(perms.twist_admissible_set(d))
        sizes[d] = len(brute)
    assert sizes == {1: 1, 2: 3, 3: 15}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_admissible_transposition_count(d):
    etas = perms.admissible_transpositions(d)
    assert len(etas) == comb(2 * d, 2) - d
    tau = perms.pairing_involution(d)
    as_set = set(etas)
    for eta in etas:
        moved = [i for i in range(2 * d) if eta[i] != i]
        assert len(moved) == 2
        i, j = moved
        assert j != tau[i]
        # closed under conjugation by tau
        assert perms.conjugate(eta, tau) in as_set


def test_admissible_transpositions_d1_empty():
    assert list(perms.admissible_transpositions(1)) == []


# -- transitivity -------------------------------------------------------------


def _naive_transitive(gens, n):
    """Oracle: generate the whole subgroup, then check one orbit."""
    group = {perms.identity(n)}
    frontier = [perms.identity(n)]
    while frontier:
        g = frontier.pop()
        for h in gens:
            nxt = perms.compose(h, g)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    orbit = {g[0] for g in group}
    return len(orbit) == n


def test_transitivity_matches_subgroup_oracle():
    s4 = perms.symmetric_group(4)
    for gens in itertools.combinations(s4, 1):
        assert perms.acts_transitively(gens, 4) == _naive_transitive(gens, 4)
    # a deterministic spread of generator pairs
    for gens in itertools.islice(itertools.combinations(s4, 2), 0, None, 7):
        assert perms.acts_transitively(gens, 4) == _naive_transitive(gens, 4)


def test_transitivity_examples():
    assert perms.acts_transitively([perms.from_cycles(4, "(1 2 3 4)")], 4)
    assert not perms.acts_transitively([perms.from_cycles(4, "(1 2)")], 4)
    assert not perms.acts_transitively([], 4)
    assert perms.acts_transitively([], 1)
