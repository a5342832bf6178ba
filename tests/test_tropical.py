"""Tropical pipeline: quotient covers, lift classes, multiplicities."""

import gc
import hashlib
import itertools
import json
from collections import Counter, defaultdict
from fractions import Fraction
from functools import partial

import pytest

from twisted_hurwitz import graphs, tropical
from twisted_hurwitz.factorizations import count_twisted
from twisted_hurwitz.graphs import (
    connected,
    labelled_graphs,
    multiset_automorphisms,
    vertex_profiles,
)
from twisted_hurwitz.tropical import (
    QuotientCover,
    count_tropical,
    cover_multiplicity,
    cover_record,
    cover_to_dot,
    cover_to_json,
    enumerate_quotient_covers,
    preimage_details,
    quotient_multiplicity,
    verify_preimage_formula,
)


# -- the degree-2 genus-3 case, in full ----------------------------------------


def test_degree2_genus3_cover_census():
    covers = enumerate_quotient_covers(2, 3)
    assert len(covers) == 5
    by_quotient = defaultdict(list)
    for cv in covers:
        by_quotient[cv.edges].append(cv)
    assert sorted(len(v) for v in by_quotient.values()) == [1, 2, 2]
    # the lone two-lift-sign-free quotient: both positions 2-valent, weight 2
    (loner,) = [cvs for cvs in by_quotient.values() if len(cvs) == 1]
    assert loner[0].edges == ((0, 1, 0, 2), (1, 0, 1, 2))
    assert loner[0].lift == ()
    assert (loner[0].lift_automorphisms, cover_multiplicity(loner[0]).value) == (4, 4)
    # each doubled quotient splits into lift classes with Aut 2 and Aut 4
    for cvs in by_quotient.values():
        if len(cvs) == 2:
            pairs = sorted((cv.lift_automorphisms, cover_multiplicity(cv).value) for cv in cvs)
            assert pairs == [(2, Fraction(4)), (4, Fraction(2))]
    assert sorted(cover_multiplicity(cv).value for cv in covers) == [2, 2, 4, 4, 4]
    assert count_tropical(2, 3) == 16


def test_cover_counts_frozen():
    # class counts fixed by earlier runs; guards the enumeration order/filters
    expected = {(2, 3): 5, (2, 4): 7, (2, 5): 17, (3, 3): 13, (3, 4): 19}
    for (d, g), n in expected.items():
        assert len(enumerate_quotient_covers(d, g)) == n
    # raw quotient multisets, before the (omega_v - 1) filter and the lifts;
    # counts and digest were taken from the earlier edge-candidate search
    multisets = {}
    for g, counts in {2: (1, 2, 2), 3: (1, 5, 8), 4: (1, 11, 34), 5: (1, 27, 148)}.items():
        for d, n in zip((1, 2, 3), counts):
            multisets[(d, g)] = tropical._enumerate_multisets(d, g)
            assert len(multisets[(d, g)]) == n
    multisets[(4, 4)] = tropical._enumerate_multisets(4, 4)
    assert len(multisets[(4, 4)]) == 96
    blob = repr([(d, g, ms) for (d, g), ms in multisets.items()]).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "1df81c31fb39b72ba42ab7be8fa75dd4bcb1063a580a2fb216cdf8f85fffd7ca"
    )
    # symgroup, tropical and the graph sum agree on this value
    assert count_tropical(4, 4) == 11456


def test_lift_classes_frozen():
    # every quotient of three points, before the (omega_v - 1) filter: lift
    # class representatives, automorphism counts, connected and total sign
    # assignments; digest taken from the record-and-matching implementation
    blob = repr(
        [
            (d, g, [tropical.lift_classes(e, g - 1) for e in tropical._enumerate_multisets(d, g)])
            for d, g in ((3, 5), (4, 4), (2, 6))
        ]
    ).encode()
    assert len(blob) == 11405
    assert hashlib.sha256(blob).hexdigest() == (
        "9e55acc8a4b987a12b90d561d4d899ce02f98ba6db99d25780e3b37d1bd72b0f"
    )


def _brute_decorations(pairs, s, d):
    """Every (orientation, 1 <= w <= d) choice per edge, kept when
    balanced, then every (k >= least k) choice per edge, kept when
    sum(w*k) = d, as sorted tuples."""
    options = [[(i, j, w) for i, j in {(u, v), (v, u)} for w in range(1, d + 1)] for u, v in pairs]
    # a position's net weight, at most 3d either way, is one digit in base
    # 6d + 1, so a flow balances exactly when its digits sum to 0
    base = 6 * d + 1
    nets = [[w * (base**i - base**j) for i, j, w in edge] for edge in options]
    found = set()
    for flow, net in zip(itertools.product(*options), map(sum, itertools.product(*nets))):
        if net:
            continue
        for ks in itertools.product(*[range(int(i >= j), d // w + 1) for i, j, w in flow]):
            if sum(w * k for (_i, _j, w), k in zip(flow, ks)) == d:
                found.add(tuple(sorted((i, j, k, w) for (i, j, w), k in zip(flow, ks))))
    return sorted(found)


def _looped_graphs(s):
    """Every connected multigraph on s positions, each 2- or 3-valent,
    with at least one loop, as sorted edge pairs."""
    candidates = [(u, v) for u in range(s) for v in range(u, s)]
    found = []
    for valences in itertools.product((2, 3), repeat=s):
        if sum(valences) % 2:
            continue
        for pairs in itertools.combinations_with_replacement(candidates, sum(valences) // 2):
            ends = Counter(x for pair in pairs for x in pair)
            if ([ends[x] for x in range(s)] == list(valences) and connected(s, pairs)
                    and any(u == v for u, v in pairs)):
                found.append(pairs)
    return found


def test_loops_on_two_or_more_positions_admit_no_quotient():
    # why graphs.edge_tree places a loop only on a single position: on two
    # or more, no looped graph has a balanced decoration.  A loop at a
    # 3-valent position hangs on a bridge, which balance leaves without
    # weight (the dumbbell, the claw with a loop at each leaf), and one at a
    # 2-valent position cuts it off from the rest
    looped = {s: _looped_graphs(s) for s in (2, 3, 4)}
    assert [len(looped[s]) for s in (2, 3, 4)] == [1, 9, 76]
    assert ((0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)) in looped[4]
    for s, pairs_list in looped.items():
        for pairs in pairs_list:
            for d in (1, 2, 3):
                assert _brute_decorations(pairs, s, d) == [], (pairs, d)


def test_crossings_leave_no_reference_cycle():
    # with the collector off, anything a call leaves unreachable stays
    # until gc.collect(), which returns how many objects it found
    flow = ((0, 1, 1, 0), (0, 1, 1, 0), (1, 0, 2, 1))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert len(tropical._crossings(flow, 3)) == 3
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _walked_quotients(t, c, g, d, cut):
    """Each labelled graph's quotients, keyed by its edge pairs, from one
    walk of the profile's edge tree with the flow pass as the step."""
    found = {}

    def leaf(flows, _valences, pairs):
        found[pairs] = tropical._quotients(flows)

    graphs.walk_tree(t, c, [((0,) * (g - 1), d, ())],
                     partial(tropical._extend, d, cut), leaf)
    return found


def test_counted_decorations_are_the_nonzero_weight_ones():
    # every profile's tree walked whole, as the count and the export walk
    # it: the flow pass yields each graph's quotients of the exhaustive
    # search, each once, and with the count's cut (w >= 2 at a two-valent
    # position) exactly those of nonzero weight; a graph the walk cut
    # before its leaf has none
    checked = dropped = 0
    for g in (2, 3, 4, 5):
        s = g - 1
        for d in range(1, 5):
            for t, c in vertex_profiles(g):
                walked = _walked_quotients(t, c, g, d, False)
                counted_walk = _walked_quotients(t, c, g, d, True)
                for graph in labelled_graphs(t, c):
                    edges = graph.edges
                    raw = walked.get(edges, [])
                    counted = counted_walk.get(edges, [])
                    brute = _brute_decorations(edges, s, d)
                    assert len(set(raw)) == len(raw), (edges, d)
                    assert sorted(raw) == brute, (edges, d)
                    kept = [q for q in brute if tropical._weight(q, tropical._shape(q, s), g)]
                    assert sorted(counted) == kept, (edges, d)
                    checked += bool(raw)
                    dropped += len(raw) - len(counted)
    assert (checked, dropped) == (92, 624)  # dropped: zero-weight quotients the count never builds


def test_flow_pass_extends_each_shared_prefix_once(monkeypatch):
    formed = []
    extend = tropical._extend

    def counting(*args):
        out = extend(*args)
        formed.append(len(out))
        return out

    monkeypatch.setattr(tropical, "_extend", counting)
    # oracle: the graph sum, generating_series_coefficient(3, 6)
    assert count_tropical(3, 6) == 240096
    shared = sum(formed)
    formed.clear()
    for t, c in vertex_profiles(6):
        for graph in labelled_graphs(t, c):
            valences = graph.degrees()
            left = list(valences)
            flows = [((0,) * 5, 3, ())]
            for n, (u, v) in enumerate(graph.edges):
                left[u] -= 1
                left[v] -= 1
                parallel = n > 0 and graph.edges[n - 1] == (u, v)
                flows = tropical._extend(3, True, flows, valences, u, v, left[u], left[v], parallel)
    # walking each graph alone forms every partial flow of its prefixes again
    assert shared == 9176 < sum(formed) == 20441


def test_degree4_genus6_count():
    # symgroup (connected, with a raised budget) and the graph sum give it too
    assert count_tropical(4, 6) == 7558784


def test_degree3_genus7_count():
    # the graph sum gives it too
    assert count_tropical(3, 7) == 2981952


DESK = [(d, g) for d in (1, 2, 3) for g in (2, 3, 4, 5)]


def _graph(edges):
    """The undirected edge multiset of a quotient."""
    return tuple(sorted((min(i, j), max(i, j)) for i, j, _k, _w in edges))


@pytest.mark.parametrize("d,g", DESK + [(4, 4), (4, 5), (3, 6)])
def test_count_is_the_sum_over_exported_covers(d, g):
    # the per-cover definition stays the oracle of the per-quotient count;
    # at (4, 5) and (3, 6) equal decorated parallel edges split prod m!
    covers = enumerate_quotient_covers(d, g)
    assert count_tropical(d, g) == sum(cover_multiplicity(cv).value for cv in covers)
    assert covers == sorted(covers, key=lambda cv: (cv.edges, cv.lift))


def test_count_builds_no_cover_objects(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the count built a cover or a cover multiplicity")

    monkeypatch.setattr(tropical, "QuotientCover", forbidden)
    monkeypatch.setattr(tropical, "cover_multiplicity", forbidden)
    assert count_tropical(3, 5) == 20496
    assert count_tropical(4, 4) == 11456


def test_count_classifies_lifts_once_per_graph(monkeypatch):
    calls = Counter()
    real = tropical.lift_classes

    def counting(edges, s):
        calls[_graph(edges)] += 1
        return real(edges, s)

    monkeypatch.setattr(tropical, "lift_classes", counting)
    tropical._lift_factor.cache_clear()
    assert count_tropical(4, 4) == 11456
    # 38 weighted quotients on 4 graphs
    assert sorted(calls.values()) == [1, 1, 1, 1]


def test_exported_quotients_are_the_nonzero_weight_multisets():
    # the export is the unpruned reference: every quotient the flow pass
    # finds, kept exactly when its weight prod(omega_v - 1) * prod w(e) is nonzero
    for d, g in DESK + [(4, 4), (2, 6)]:
        weighted = {
            edges for edges in tropical._enumerate_multisets(d, g)
            if tropical._weight(edges, tropical._shape(edges, g - 1), g)
        }
        assert {cv.edges for cv in enumerate_quotient_covers(d, g)} == weighted, (d, g)


def test_lift_sum_times_prod_m_factorial_is_a_graph_invariant():
    # the lemma count_tropical rests on: prod m!(q) * sum 1/|Aut| over the
    # lift classes of q is the same for every quotient q of one graph
    split = 0
    for d, g in DESK + [(4, 4), (2, 6)]:
        per_graph = defaultdict(set)
        factorials = defaultdict(set)
        for edges in tropical._enumerate_multisets(d, g):
            if not tropical._weight(edges, tropical._shape(edges, g - 1), g):
                continue
            m = multiset_automorphisms(edges)
            classes = tropical.lift_classes(edges, g - 1)[0]
            per_graph[_graph(edges)].add(m * sum(Fraction(1, aut) for _signs, aut in classes))
            factorials[_graph(edges)].add(m)
        assert all(len(values) == 1 for values in per_graph.values()), (d, g)
        # the count reads the value off the graph's own edges, each (u, v, 0, 1)
        for graph, (value,) in per_graph.items():
            assert value == tropical._lift_factor(graph, g - 1), (d, g, graph)
        split += sum(len(ms) > 1 for ms in factorials.values())
    assert split == 5  # graphs whose quotients differ in prod m!


def test_genus2_closed_form():
    # H(d, 2) = sigma_2(d) - sigma_1(d)
    def sigma(p, d):
        return sum(x**p for x in range(1, d + 1) if d % x == 0)

    for d in range(1, 13):
        assert count_tropical(d, 2) == sigma(2, d) - sigma(1, d), d
    for d in range(1, 5):
        assert count_twisted(d, 2, connected=True).value == sigma(2, d) - sigma(1, d), d


def test_count_checks_the_structural_genus(monkeypatch):
    # two loops make a 4-valent position, where 2g' = g - c + 1 fails: a
    # one-leaf tree, (v, u, open ends left at v and u, parallel, children)
    double_loop = (0, 0, 2, 2, False, ((0, 0, 0, 0, True, ()),))
    monkeypatch.setattr(graphs, "edge_tree", lambda *_args: (((4,), (double_loop,)),))
    with pytest.raises(ValueError, match="structural genus"):
        count_tropical(2, 2)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_degree1_has_no_contributing_covers(g):
    assert enumerate_quotient_covers(1, g) == []
    assert count_tropical(1, g) == 0


@pytest.mark.parametrize("d,g", [(1, 2), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_tropical_matches_symmetric_group_pipeline(d, g):
    assert count_tropical(d, g) == count_twisted(d, g, connected=True).value


# -- lift classes against the closed form ---------------------------------------


def test_preimage_formula_on_genus2_quotient():
    # worked case: genus-2 quotient of the (2,3) cover with two parallel
    # uncrossed edges; lift classes carry Aut 2 and 4, so the explicit sum is
    # 1/2 + 1/4 = 3/4, matching (2^2 - 1)/(2 * 2)
    edges = ((0, 1, 0, 1), (0, 1, 0, 1), (1, 0, 1, 2))
    covers = [cv for cv in enumerate_quotient_covers(2, 3) if cv.edges == edges]
    assert len(covers) == 2
    details = preimage_details(covers[0])
    assert details["quotient_genus"] == 2
    assert details["four_valent_count"] == 0
    assert sorted(aut for _signs, aut in details["classes"]) == [2, 4]
    assert details["lift_sum"] == Fraction(3, 4)
    assert details["closed_form"] == Fraction(3, 4)
    assert verify_preimage_formula(covers[0])


def test_preimage_formula_on_tree_quotient():
    # a tree quotient has no connected double cover at all, and the closed
    # form agrees: (2^0 - 1) / 2 = 0.  No tree carries a balanced flow, so
    # no cover has such a quotient and the lift sum is read off the edges
    edges = ((0, 1, 0, 1),)
    shape = tropical._shape(edges, 2)
    assert shape.genus == 0
    assert tropical.lift_classes(edges, 2) == ([], 0, 2)
    assert tropical._closed_lift_sum(edges, shape) == 0
    with pytest.raises(ValueError, match="not balanced"):
        QuotientCover(d=1, g=3, edges=edges, lift=(0,), lift_automorphisms=1)


def test_four_valent_vertices_never_disconnect_lifts():
    # with c >= 1 every gluing assignment yields a connected double cover
    hit = False
    for d, g in [(2, 2), (2, 4), (3, 3)]:
        for cv in enumerate_quotient_covers(d, g):
            details = preimage_details(cv)
            if details["four_valent_count"] >= 1:
                hit = True
                assert details["connected_assignments"] == details["total_assignments"]
    assert hit


@pytest.mark.parametrize("d,g", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_preimage_formula_across_grid(d, g):
    for cv in enumerate_quotient_covers(d, g):
        assert verify_preimage_formula(cv)


def test_quotient_closed_form_matches_lift_sum_per_quotient():
    # whole-quotient multiplicity == sum of per-lift multiplicities
    for d, g in [(2, 3), (2, 4), (3, 3)]:
        by_quotient = defaultdict(Fraction)
        for cv in enumerate_quotient_covers(d, g):
            by_quotient[cv.edges] += cover_multiplicity(cv).value
        for edges, total in by_quotient.items():
            assert quotient_multiplicity(edges, g) == total
    # the unique quotient of degree 2, genus 3 with two 4-valent vertices
    assert quotient_multiplicity(((0, 1, 0, 2), (1, 0, 1, 2)), 3) == 4


def _brute_automorphisms(edges, s, signs):
    """Automorphisms of one explicit double cover, counted one by one: a
    flip set f (swapping (v,+) and (v,-) for v in f) together with a
    bijection of the lifted edges that commutes with the involution, keeps
    each edge's quotient label and sends every lifted edge onto one joining
    the flipped images of its endpoints."""
    germs = Counter(v for i, j, _k, _w in edges for v in (i, j))
    doubled = [v for v in range(s) if germs[v] not in (0, 2)]
    sign = dict(zip(tropical.e33_indices(edges, s), signs))

    def lift(v, half):  # half 0 is +, 1 is -; a 2-valent vertex has one lift
        return (v, half if v in doubled else None)

    # the two lifts of each quotient edge, as (tail, head); the involution swaps them
    lifted = [
        [(lift(i, h), lift(j, h ^ sign.get(x, 0))) for h in (0, 1)]
        for x, (i, j, _k, _w) in enumerate(edges)
    ]
    groups = defaultdict(list)
    for x, e in enumerate(edges):
        groups[e].append(x)
    total = 0
    for bits in itertools.product((0, 1), repeat=len(doubled)):
        f = {v for v, b in zip(doubled, bits) if b}

        def image(end):
            v, half = end
            return end if half is None else (v, half ^ (v in f))

        for perm in itertools.product(*(itertools.permutations(ix) for ix in groups.values())):
            target = {x: y for ix, p in zip(groups.values(), perm) for x, y in zip(ix, p)}
            for swap in itertools.product((0, 1), repeat=len(edges)):
                total += all(
                    (image(t), image(h)) == lifted[target[x]][c ^ swap[x]]
                    for x in range(len(edges))
                    for c, (t, h) in enumerate(lifted[x])
                )
    return total


def test_lift_automorphisms_match_brute_force():
    checked = 0
    for d in (1, 2, 3):
        for g in (2, 3, 4, 5):  # at most 6 edges
            for edges in tropical._enumerate_multisets(d, g):
                classes, _conn, _total = tropical.lift_classes(edges, g - 1)
                for signs, aut in classes:
                    assert _brute_automorphisms(edges, g - 1, signs) == aut, (edges, signs)
                    checked += 1
    assert checked > 300


def _orbit_oracle(edges, s):
    """The orbits of a quotient's gluing-sign tuples, each closed under
    explicit generators: the flip of each doubled position (toggling the
    signs of the e33 edges with exactly one end there) and the swap of
    each two equal e33 edges.  Each orbit as (its least tuple, its size,
    whether its lift is connected), in order of the least tuples."""
    e33 = tropical.e33_indices(edges, s)
    germs = Counter(v for i, j, _k, _w in edges for v in (i, j))
    doubled = [v for v in range(s) if germs[v] not in (0, 2)]
    flips = [[int((edges[x][0] == v) != (edges[x][1] == v)) for x in e33] for v in doubled]
    swaps = [(p, q) for p, q in itertools.combinations(range(len(e33)), 2)
             if edges[e33[p]] == edges[e33[q]]]

    def neighbours(signs):
        for toggle in flips:
            yield tuple(a ^ b for a, b in zip(signs, toggle))
        for p, q in swaps:
            swapped = list(signs)
            swapped[p], swapped[q] = signs[q], signs[p]
            yield tuple(swapped)

    def joined(signs):
        # the lift as an explicit graph on (v, +/-) and (v, None), searched
        sign = dict(zip(e33, signs))
        half = {v: (0, 1) if v in doubled else (None, None) for v in germs}
        around = defaultdict(set)
        for x, (i, j, _k, _w) in enumerate(edges):
            for h in (0, 1):
                a, b = (i, half[i][h]), (j, half[j][h ^ sign.get(x, 0)])
                around[a].add(b)
                around[b].add(a)
        start = next(iter(around))
        reached, frontier = {start}, [start]
        while frontier:
            for end in around[frontier.pop()] - reached:
                reached.add(end)
                frontier.append(end)
        return len(reached) == len(around)

    orbits, seen = [], set()
    for signs in itertools.product((0, 1), repeat=len(e33)):
        if signs in seen:
            continue
        orbit, frontier = {signs}, [signs]
        while frontier:
            for other in neighbours(frontier.pop()):
                if other not in orbit:
                    orbit.add(other)
                    frontier.append(other)
        seen |= orbit
        orbits.append((signs, len(orbit), joined(signs)))
    return orbits


def _assert_lift_classes_are_the_oracle_orbits(edges, s):
    classes, connected_count, total = tropical.lift_classes(edges, s)
    orbits = [(least, size) for least, size, joined in _orbit_oracle(edges, s) if joined]
    assert [signs for signs, _aut in classes] == [least for least, _size in orbits], edges
    assert connected_count == sum(size for _least, size in orbits), edges
    assert total == 2 ** len(tropical.e33_indices(edges, s)), edges


def test_lift_classes_are_the_orbits_of_explicit_generators():
    # the lift edges (u, v, 0, 1) of every labelled graph with g <= 6 (the
    # leaves of the edge tree), then every quotient of three points
    graphs_checked = 0
    for g in range(2, 7):
        for t, c in vertex_profiles(g):
            for graph in labelled_graphs(t, c):
                edges = tuple((u, v, 0, 1) for u, v in graph.edges)
                _assert_lift_classes_are_the_oracle_orbits(edges, g - 1)
                graphs_checked += 1
    assert graphs_checked == 519
    for d, g in ((3, 5), (4, 4), (2, 6)):
        for edges in tropical._enumerate_multisets(d, g):
            _assert_lift_classes_are_the_oracle_orbits(edges, g - 1)


def test_lift_classes_group_equal_edges_by_value():
    # equal e33 edges passed apart: the same classes up to where the
    # edges sit, so the same connected count and automorphism counts
    ordered = ((0, 1, 0, 1), (0, 1, 0, 1), (0, 2, 0, 1), (1, 3, 0, 1), (2, 3, 0, 1), (2, 3, 0, 1))
    shuffled = ((2, 3, 0, 1), (0, 1, 0, 1), (0, 2, 0, 1), (2, 3, 0, 1), (1, 3, 0, 1), (0, 1, 0, 1))
    (by_order, joined, total), (by_value, joined_too, total_too) = (
        tropical.lift_classes(edges, 4) for edges in (ordered, shuffled))
    assert (joined, total) == (joined_too, total_too) == (56, 64)
    assert sorted(aut for _signs, aut in by_order) == sorted(aut for _signs, aut in by_value)
    _assert_lift_classes_are_the_oracle_orbits(shuffled, 4)


def test_lift_classes_test_connectivity_once_per_orbit(monkeypatch):
    # each orbit, connected or not, is tested exactly once; with a 2-valent
    # vertex every sign vector gives a connected lift, so each is a class
    calls = []
    real = tropical.connected
    monkeypatch.setattr(tropical, "connected", lambda n, pairs: calls.append(n) or real(n, pairs))
    checked = Counter()
    for edges in tropical._enumerate_multisets(3, 5):
        calls.clear()
        classes, _conn, _total = tropical.lift_classes(edges, 4)
        assert len(calls) == len(_orbit_oracle(edges, 4)), edges
        two_valent = 2 in Counter(v for i, j, _k, _w in edges for v in (i, j)).values()
        if two_valent:
            assert len(calls) == len(classes), edges
        checked[two_valent] += 1
    assert checked[True] and checked[False]


def test_lift_factors_frozen():
    # prod m! * sum 1/|Aut| of every labelled graph with g <= 6, the values
    # the count reads; digest taken from the sorted-pair-key implementation
    values = [
        (graph.edges, tropical._lift_factor(graph.edges, g - 1))
        for g in range(2, 7)
        for t, c in vertex_profiles(g)
        for graph in labelled_graphs(t, c)
    ]
    blob = repr(values).encode()
    assert (len(values), len(blob)) == (519, 36436)
    assert hashlib.sha256(blob).hexdigest() == (
        "675f072156433ad19aef5bb1f5393b317fad141b0d91109062f3af1d9bd69410"
    )


# -- structural invariants -------------------------------------------------------


def _gap_coverage(cover):
    """Weight crossing each of the s gaps between consecutive positions.

    Gap t sits between positions t and t+1 (mod s); the base point lives in
    gap s-1.  An edge (i, j, k, w) runs forward from i to j passing the base
    gap exactly k times, which pins down its full gap itinerary.
    """
    s = cover.positions
    coverage = [0] * s
    for i, j, k, w in cover.edges:
        length = (j - i) % s
        passes = sum(1 for m in range(1, length + 1) if (i + m) % s == 0)
        length += s * (k - passes)
        assert length >= 0
        for m in range(1, length + 1):
            coverage[(i + m - 1) % s] += w
    return coverage


@pytest.mark.parametrize("d,g", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_balance_and_fiberwise_degree(d, g):
    for cv in enumerate_quotient_covers(d, g):
        assert tropical._is_balanced(cv.edges, cv.positions)
        assert connected(cv.positions, [(i, j) for i, j, _k, _w in cv.edges])
        assert cv.degree_over_base() == d
        # the covering degree is d over *every* circle point, not just the base
        assert _gap_coverage(cv) == [d] * cv.positions
        gp = cv.quotient_genus
        assert 2 * gp == g - cv.four_valent_count + 1
        for weight in cv.two_valent_weights().values():
            assert weight >= 2


def test_multiplicities_are_positive_dyadic_rationals():
    for cv in enumerate_quotient_covers(3, 4):
        value = cover_multiplicity(cv).value
        assert value > 0
        # denominators only carry the lift automorphisms, which are 2-powers
        assert cv.lift_automorphisms & (cv.lift_automorphisms - 1) == 0


# -- validation and export -------------------------------------------------------


THETA = ((0, 1, 0, 1), (0, 1, 0, 1), (1, 0, 1, 2))  # three e33 edges at d=2, g=3


def test_constructor_and_argument_validation():
    theta = QuotientCover(d=2, g=3, edges=THETA, lift=(0, 1, 1), lift_automorphisms=2)
    assert theta.lift == (0, 1, 1)
    with pytest.raises(ValueError):
        QuotientCover(d=2, g=1, edges=(), lift=(), lift_automorphisms=1)
    with pytest.raises(ValueError, match="lift has 1 signs, expected 0"):
        QuotientCover(
            d=1, g=3, edges=((0, 1, 0, 1), (1, 0, 1, 1)), lift=(0,), lift_automorphisms=1
        )
    with pytest.raises(ValueError):
        enumerate_quotient_covers(0, 3)
    with pytest.raises(ValueError):
        enumerate_quotient_covers(2, 1)
    big = QuotientCover(
        d=13,
        g=2,
        edges=tuple((0, 0, 1, 1) for _ in range(13)),
        lift=tuple(0 for _ in range(13)),
        lift_automorphisms=1,
    )
    with pytest.raises(ValueError, match="12"):
        preimage_details(big)


@pytest.mark.parametrize(
    "edges,lift,aut",
    [
        (((0, 2, 0, 1), (2, 0, 1, 1)), (), 1),  # position 2 is not one of 0..1
        (((0, -1, 0, 1), (-1, 0, 1, 1)), (), 1),
        (((0, 1, 0, -2), (1, 0, 1, 2)), (), 1),  # weight < 1
        (((0, 1, -1, 2), (1, 0, 1, 2)), (), 1),  # crossings < 0
        (((0, 1, 0, 2), (1, 0, 1, 2)), (), 0),  # no automorphism at all
        (((0, 1, 0, 2), (1, 0, 1, 2)), (), 1.5),  # automorphisms are counted
        (((0, 1, 0, 2), (1, 0, 1, 2)), (), 2.0),
        (((0, 1, 0, 2), (1, 0, 1, 2)), (), True),
        (THETA, (7, 7, 7), 1),  # a gluing sign is 0 (straight) or 1 (crossed)
        (THETA, (0, 1, -1), 1),
        (THETA, (0, 0, 1.0), 1),
        (THETA, (0, 0, True), 1),
    ],
)
def test_malformed_covers_are_refused(edges, lift, aut):
    with pytest.raises(ValueError):
        QuotientCover(d=2, g=3, edges=edges, lift=lift, lift_automorphisms=aut)


def test_unbalanced_or_off_degree_covers_are_refused():
    # germ weights 1 out of and 2 into position 0, and degree 2 over the base
    with pytest.raises(ValueError, match="not balanced"):
        QuotientCover(d=3, g=3, edges=((0, 1, 0, 1), (1, 0, 1, 2)), lift=(),
                      lift_automorphisms=1)
    balanced = ((0, 1, 0, 2), (1, 0, 1, 2))
    assert QuotientCover(d=2, g=3, edges=balanced, lift=(),
                         lift_automorphisms=1).degree_over_base() == 2
    with pytest.raises(ValueError, match="degree 2 over the base point, not d=3"):
        QuotientCover(d=3, g=3, edges=balanced, lift=(), lift_automorphisms=1)


def test_disconnected_covers_are_refused():
    # fewer edges than positions - 1 would give a negative quotient genus,
    # which the closed lift sum cannot take
    with pytest.raises(ValueError, match="not balanced"):
        QuotientCover(d=1, g=4, edges=((0, 1, 0, 1),), lift=(0,), lift_automorphisms=1)
    with pytest.raises(ValueError, match="disconnected"):
        QuotientCover(d=1, g=4, edges=((0, 0, 1, 1),), lift=(), lift_automorphisms=1)
    with pytest.raises(ValueError, match="disconnected"):
        QuotientCover(d=2, g=5, edges=((0, 1, 0, 1), (1, 0, 1, 1), (2, 3, 0, 1), (3, 2, 1, 1)),
                      lift=(), lift_automorphisms=1)


def test_export_round_trip():
    covers = enumerate_quotient_covers(2, 3)
    records = json.loads(cover_to_json(covers))
    assert len(records) == 5
    for cv, rec in zip(covers, records):
        assert rec["degree"] == 2 and rec["genus"] == 3
        assert len(rec["edges"]) == len(cv.edges)
        mult = cover_multiplicity(cv).value
        assert Fraction(
            int(rec["multiplicity"]["numerator"]),
            int(rec["multiplicity"]["denominator"]),
        ) == mult
        # endpoints are 1-based in the export
        assert all(e["from"] >= 1 and e["to"] >= 1 for e in rec["edges"])
    dot = cover_to_dot(covers[0], name="c0")
    assert dot.startswith("digraph c0 {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -> ") == len(covers[0].edges)
