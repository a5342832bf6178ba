"""Permutations of {0, ..., n-1} and the subgroups used by the twisted count.

Permutations are plain tuples ``p`` with ``p[i]`` the image of point ``i``.
Points are 0-based in memory; the cycle helpers (`from_cycles`, `cycles_str`)
speak the 1-based notation used in the literature, so worked examples can be
transcribed verbatim.

Composition is right-to-left throughout the package:

    compose(p, q)(x) == p(q(x))

The distinguished fixed-point-free involution on 2d points is

    tau = (1 d+1)(2 d+2)...(d 2d)      (1-based),

i.e. ``i -> (i + d) % (2 d)`` in 0-based form.  Three subsets of S_{2d} are
built around it:

* ``B_d``  -- the centralizer of tau (the hyperoctahedral group, order 2^d d!),
  enumerated constructively as signed permutations;
* ``C~``   -- permutations with tau * s * tau == s^{-1}, enumerated as
  tau * (involutions of S_{2d});
* ``B~_d`` -- the members of C~ none of whose cycles has tau-invariant support
  (the "no self-symmetric cycle" condition), enumerated as
  tau * (perfect matchings of the 2d points).

Why the matchings give B~_d: if rho is an involution with a fixed point x,
then s = tau * rho sends x to tau(x), so the cycle of x meets its tau-image
and is self-paired.  If rho = m has no fixed point, the components of the
graph with the edges of tau and of m are cycles of 2k points alternating
tau-edges and m-edges; s = tau * m moves two steps along such a cycle, so
it acts there as two k-cycles, and tau swaps them: no cycle is
self-paired.  The factorization s = tau * m is unique, so |B~_d| is the
number of matchings, (2d-1)!!.
"""

from __future__ import annotations

import itertools
import re

from .graphs import connected

Perm = tuple


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Right-to-left composition: (p*q)(x) = p(q(x))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def conjugate(p: Perm, by: Perm) -> Perm:
    """Return by * p * by^{-1}."""
    n = len(p)
    out = [0] * n
    for i in range(n):
        out[by[i]] = by[p[i]]
    return tuple(out)


def transposition(n: int, i: int, j: int) -> Perm:
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def cycle_type(p: Perm) -> tuple:
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def cycles(p: Perm) -> list:
    """Cycle decomposition including fixed points, each cycle starting at its
    minimum, cycles sorted by that minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        c = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            c.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(c))
    return out


def from_cycles(n: int, spec: str) -> Perm:
    """Parse 1-based cycle notation, e.g. ``from_cycles(4, "(1 4)(2 3)")``.

    Separators inside a cycle may be spaces or commas; points not mentioned
    are fixed, and no point may appear twice, within a cycle or across
    cycles.  Single-digit runs like "(14)(23)" are accepted too and read
    digit-by-digit (the common shorthand for n <= 9).
    """
    p = list(range(n))
    seen = set()
    for group in re.findall(r"\(([^()]*)\)", spec):
        group = group.strip()
        if not group:
            continue
        if re.search(r"[ ,]", group):
            pts = [int(t) - 1 for t in re.split(r"[ ,]+", group)]
        else:
            pts = [int(ch) - 1 for ch in group]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            if not 0 <= a < n:
                raise ValueError(f"point {a + 1} out of range 1..{n}")
            if a in seen:
                raise ValueError(f"point {a + 1} appears twice in {spec!r}")
            seen.add(a)
            p[a] = b
    return tuple(p)


def cycles_str(p: Perm) -> str:
    """1-based cycle notation, fixed points suppressed; identity is 'e'."""
    parts = [
        "(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles(p) if len(c) > 1
    ]
    return "".join(parts) if parts else "e"


# ---------------------------------------------------------------------------
# the pairing involution tau and its companion subgroups


def pairing_involution(d: int) -> Perm:
    """tau in S_{2d}: the fixed-point-free involution pairing i with i+d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return tuple((i + d) % (2 * d) for i in range(2 * d))


def is_in_hyperoctahedral(p: Perm, d: int) -> bool:
    """Does p centralize the pairing involution (p * tau * p^{-1} == tau)?"""
    _check_size(p, d)
    tau = pairing_involution(d)
    return conjugate(tau, p) == tau


def has_self_paired_cycle(p: Perm, d: int) -> bool:
    """True if some cycle of p has support invariant under the pairing."""
    _check_size(p, d)
    tau = pairing_involution(d)
    for c in cycles(p):
        if {tau[x] for x in c} == set(c):
            return True
    return False


def hyperoctahedral_group(d: int) -> list:
    """All of B_d as signed permutations: |B_d| = 2^d * d!.

    Built constructively (images of 0..d-1 pick a permuted point in either
    half; the second half is forced by commutation with tau), sorted.
    """
    n = 2 * d
    out = []
    for w in itertools.permutations(range(d)):
        for signs in itertools.product((0, 1), repeat=d):
            p = [0] * n
            for i in range(d):
                img = w[i] + d * signs[i]
                p[i] = img
                p[i + d] = (img + d) % n
            out.append(tuple(p))
    out.sort()
    return out


def _involutions(n: int, fixed_points: bool = True):
    """All involutions of S_n including the identity (recursive pairing);
    only the fixed-point-free ones (perfect matchings) without
    *fixed_points*."""
    p = list(range(n))

    def rec(points):
        if not points:
            yield tuple(p)
            return
        first, rest = points[0], points[1:]
        if fixed_points:
            yield from rec(rest)
        for k, partner in enumerate(rest):
            p[first], p[partner] = partner, first
            yield from rec(rest[:k] + rest[k + 1 :])
            p[first], p[partner] = first, partner

    yield from rec(tuple(range(n)))


def twist_symmetric_set(d: int) -> list:
    """All of C~ = {p : tau p tau = p^{-1}} as tau * (involutions), sorted."""
    tau = pairing_involution(d)
    return sorted(compose(tau, rho) for rho in _involutions(2 * d))


def twist_admissible_set(d: int) -> list:
    """All of B~_d as tau * (perfect matchings), sorted (lexicographic
    one-line order); see the module docstring."""
    tau = pairing_involution(d)
    return sorted(compose(tau, m) for m in _involutions(2 * d, fixed_points=False))


def admissible_transpositions(d: int) -> list:
    """Transpositions (i j) of S_{2d} with j != tau(i), as perm tuples.

    There are C(2d, 2) - d of them; for d = 1 the list is empty.
    """
    n = 2 * d
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if j != (i + d) % n:
                out.append(transposition(n, i, j))
    return out


def symmetric_group(n: int) -> list:
    """All of S_n in lexicographic one-line order."""
    return [tuple(p) for p in itertools.permutations(range(n))]


def acts_transitively(gens, n: int) -> bool:
    """Is {0..n-1} a single orbit under the given permutations?

    Orbit closure only; the subgroup itself is never materialized.  With no
    generators the orbits are singletons, so n > 1 gives False.
    """
    if n <= 1:
        return True
    return connected(n, ((i, g[i]) for g in gens for i in range(n)))


def _check_size(p: Perm, d: int):
    if len(p) != 2 * d:
        raise ValueError(f"permutation acts on {len(p)} points, expected {2 * d}")
