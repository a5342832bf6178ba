"""Counting tuple factorizations in symmetric groups.

This is the reference pipeline: twisted counts are defined as weighted
numbers of tuples

    (sigma, eta_1, ..., eta_{g-1}, alpha)   in   S_{2d}^{g+1}

where sigma is twist-symmetric and admissible, each eta_s is a transposition
(i j) with j != tau(i), alpha centralizes the pairing involution tau, and

    eta_{g-1} * ... * eta_1 * sigma * (tau eta_1 tau) * ... * (tau eta_{g-1} tau)
        = alpha * sigma * alpha^{-1}

(first transposition innermost).  The count, divided by 2^d * d!, is the
twisted degree-d genus-g invariant; "connected" restricts to tuples whose
entries together with the conjugated transpositions generate a transitive
subgroup.

The classical (untwisted) analogue over the torus is included as a
smoke-test companion: tuples (sigma, tau_1..tau_{2g-2}, alpha) in S_d with
tau_{2g-2} ... tau_1 sigma = alpha sigma alpha^{-1}, divided by d!.

How the count is taken
----------------------
Write E = eta_{g-1} * ... * eta_1.  Each eta_s is an involution and
tau^2 = 1, so

    (tau eta_1 tau) * ... * (tau eta_{g-1} tau) = tau (eta_1 * ... * eta_{g-1}) tau
                                                = tau E^{-1} tau,

and the left side of the equation is the sandwich  E * sigma * (tau E^{-1} tau).
Transitivity needs only the partition P of the points joined by the
transpositions: eta_s = (i j) joins i and j, and tau eta_s tau joins tau(i)
and tau(j).  Neither E nor P involves sigma.  So one dynamic program over
the states (E, tau E^{-1} tau, P), each step applying one admissible
transposition and carrying the number of sequences that reach the state,
gives the contribution of every sequence for every sigma at once (`_layer`).
P is tracked only for connected counts; otherwise it stays the discrete
partition.  The layer for g-1 slots is built from the one for g-2 and
memoised, so genus g reuses the work of genus g-1.  A sigma is finished
(`count_for_sigma`) by looking each state's product up in the table of
alpha sigma alpha^{-1}: the state adds its multiplicity once per matching
alpha, and for connected counts only for the alphas with P v sigma v alpha
transitive (all of them when P v sigma already is).

Conjugating a whole tuple by beta in B_d gives another counted tuple: beta
commutes with tau, so it maps B~_d, B_d and the admissible transpositions
((beta i, beta j) with beta j != tau(beta i)) to themselves; it conjugates
both sides of the equation alike; and it relabels the points, which keeps
transitivity.  The count for sigma therefore depends only on the B_d-orbit
of sigma, and the total is the sum over orbit representatives of orbit size
times the representative's count (`_sigma_orbits`: 15 sigmas fall into 3
orbits at d=3, 105 into 5 at d=4, 945 into 7 at d=5).

The classical count runs the same layer builder with E = tau_{2g-2} * ...
* tau_1 in S_d, product E * sigma (the right factor stays the identity),
steps joining {i, j}, and sigma summed over conjugacy classes of S_d.

Searches are budgeted: a query whose projected tuple-tree size exceeds the
budget raises BudgetExceeded instead of running for hours.  The projection
is the size of the tuple tree a direct search would walk (sigmas times
transposition sequences times alphas), not the smaller work of the dynamic
program, and it comes from the closed-form sizes of those sets, so a
refused query builds none of them.  The default budget is 10**9 nodes and
may be overridden per call or via the TH_BUDGET environment variable.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from time import perf_counter

from . import perms

DEFAULT_BUDGET = 10**9

#: the one counting backend, reported in every HurwitzResult
KERNEL_BACKEND = "python"


class BudgetExceeded(RuntimeError):
    """Raised when a query's projected search size exceeds the budget."""

    def __init__(self, projected, budget):
        super().__init__(
            "projected search size %d exceeds budget %d; "
            "pass a larger budget= or set TH_BUDGET" % (projected, budget)
        )
        self.projected = projected
        self.budget = budget


def resolve_budget(budget=None):
    """Explicit argument wins, then TH_BUDGET, then the default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get("TH_BUDGET")
    if env is not None and env.strip():
        try:
            return int(env)
        except ValueError:
            raise ValueError("TH_BUDGET must be an integer, got %r" % env) from None
    return DEFAULT_BUDGET


@dataclass(frozen=True)
class HurwitzQuery:
    kind: str  # "twisted" | "classical"
    d: int
    g: int
    connected: bool


@dataclass(frozen=True)
class HurwitzResult:
    query: HurwitzQuery
    tuple_count: int
    normalization: int
    value: Fraction
    backend: str
    elapsed_ms: float


def _check_dg(d, g):
    if d < 1:
        raise ValueError("degree d must be >= 1, got %r" % (d,))
    if g < 1:
        raise ValueError("genus g must be >= 1, got %r" % (g,))


@lru_cache(maxsize=None)
def _twisted_tables(d):
    """(etas, eta_taus, alphas, sigmas) for degree d, all sorted tuples."""
    tau = perms.pairing_involution(d)
    etas = perms.admissible_transpositions(d)
    eta_taus = tuple(perms.conjugate(e, tau) for e in etas)
    alphas = perms.hyperoctahedral_group(d)
    sigmas = perms.twist_admissible_set(d)
    return etas, eta_taus, alphas, sigmas


def _alpha_lookup(sigma, alphas):
    """Map bytes(alpha sigma alpha^{-1}) -> list of alpha indices."""
    table = {}
    for ai, alpha in enumerate(alphas):
        key = bytes(perms.conjugate(sigma, alpha))
        table.setdefault(key, []).append(ai)
    return table


def _twisted_projected(d, g):
    """|B~_d| * |eta|^(g-1) * |B_d| from the closed forms (2d-1)!!,
    C(2d, 2) - d and 2^d d!, so a refusal builds no table."""
    sigmas = factorial(2 * d) // (2**d * factorial(d))
    etas = comb(2 * d, 2) - d
    return sigmas * etas ** (g - 1) * 2**d * factorial(d)


def _orbits(points, group):
    """(representative, orbit size) for each orbit of *group* acting on
    *points* by conjugation; a representative is its orbit's first point."""
    seen = set()
    out = []
    for p in points:
        if p not in seen:
            orbit = {perms.conjugate(p, beta) for beta in group}
            seen |= orbit
            out.append((p, len(orbit)))
    return out


@lru_cache(maxsize=None)
def _sigma_orbits(d):
    """B_d-orbits of B~_d as (representative, size) pairs."""
    _, _, alphas, sigmas = _twisted_tables(d)
    return tuple(_orbits(sigmas, alphas))


def _support(t):
    """The two points a transposition moves."""
    return tuple(i for i, x in enumerate(t) if x != i)


def _join(labels, pairs):
    """Partition *labels* (each point labelled by the least point of its
    block) with the blocks of each pair merged."""
    for a, b in pairs:
        la, lb = labels[a], labels[b]
        if la != lb:
            if la > lb:
                la, lb = lb, la
            labels = tuple(la if x == lb else x for x in labels)
    return labels


@lru_cache(maxsize=None)
def _layer(n, moves, depth, connected):
    """{(left, right): {P: sequences}} over all sequences of *depth* moves.

    A move (step, right_step, pairs) multiplies the left factor by *step*
    on the left and the right factor by *right_step* on the right, and
    joins *pairs* in the partition P, which stays discrete unless
    *connected*.  The product after the sequence is left * sigma * right.
    """
    ident = tuple(range(n))
    if depth == 0:
        return {(ident, ident): {ident: 1}}
    out = {}
    joined = {}
    for (left, right), parts in _layer(n, moves, depth - 1, connected).items():
        for k, (step, right_step, pairs) in enumerate(moves):
            bucket = out.setdefault(
                (tuple([step[x] for x in left]), tuple([right[x] for x in right_step])), {}
            )
            for part, mult in parts.items():
                if connected:
                    nxt = joined.get((part, k))
                    if nxt is None:
                        nxt = joined[part, k] = _join(part, pairs)
                    part = nxt
                bucket[part] = bucket.get(part, 0) + mult
    return out


def _finish(layer, sigma, alphas, lookup, connected):
    """Tuples completing *sigma*, summed over the states of *layer*.

    A partition is one block (the group acts transitively) exactly when
    every point carries the label 0.
    """
    total = 0
    with_sigma = {}  # P -> P v sigma
    spans = {}  # (P v sigma, alpha index) -> is P v sigma v alpha one block?
    for (left, right), parts in layer.items():
        cand = lookup.get(bytes([left[sigma[x]] for x in right]))
        if not cand:
            continue
        if not connected:
            total += len(cand) * sum(parts.values())
            continue
        for part, mult in parts.items():
            base = with_sigma.get(part)
            if base is None:
                base = with_sigma[part] = _join(part, enumerate(sigma))
            if not any(base):
                total += mult * len(cand)
                continue
            for ai in cand:
                hit = spans.get((base, ai))
                if hit is None:
                    hit = spans[base, ai] = not any(_join(base, enumerate(alphas[ai])))
                if hit:
                    total += mult
    return total


def count_for_sigma(sigma, etas, eta_taus, alphas, lookup, depth, connected):
    """Number of (eta_1..eta_depth, alpha) completions for this sigma.

    sigma, etas[e], eta_taus[e], alphas[a]: permutations as int sequences.
    lookup: dict  bytes(alpha sigma alpha^{-1}) -> list of indices into alphas.
    depth: number of transposition slots (g - 1; may be 0).
    connected: require the tuple's group to act transitively.

    The sequences come from the memoised layer of transposition products
    (see the module docstring), which every sigma of the degree shares.
    """
    moves = tuple(
        (tuple(eta), tuple(eta_t), (_support(eta), _support(eta_t)))
        for eta, eta_t in zip(etas, eta_taus)
    )
    layer = _layer(len(sigma), moves, depth, connected)
    return _finish(layer, sigma, alphas, lookup, connected)


def _count_orbit_range(args):
    """Worker: orbit size times count over the B_d-orbit representatives
    [lo:hi].  Rebuilds tables locally so only small picklable arguments
    cross the process boundary."""
    d, g, connected, lo, hi = args
    etas, eta_taus, alphas, _ = _twisted_tables(d)
    total = 0
    for sigma, size in _sigma_orbits(d)[lo:hi]:
        lookup = _alpha_lookup(sigma, alphas)
        total += size * count_for_sigma(sigma, etas, eta_taus, alphas, lookup, g - 1, connected)
    return total


def count_twisted(d, g, connected=True, budget=None, threads=1):
    """Twisted degree-d genus-g count as an exact Fraction (in a HurwitzResult)."""
    _check_dg(d, g)
    limit = resolve_budget(budget)
    projected = _twisted_projected(d, g)
    if projected > limit:
        raise BudgetExceeded(projected, limit)

    start = perf_counter()
    reps = len(_sigma_orbits(d))
    if threads > 1 and reps > 1:
        workers = min(threads, reps)
        step = -(-reps // workers)
        blocks = [
            (d, g, connected, lo, min(lo + step, reps)) for lo in range(0, reps, step)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            total = sum(pool.map(_count_orbit_range, blocks))
    else:
        total = _count_orbit_range((d, g, connected, 0, reps))
    elapsed = (perf_counter() - start) * 1000.0

    norm = 2**d * factorial(d)
    return HurwitzResult(
        query=HurwitzQuery("twisted", d, g, connected),
        tuple_count=total,
        normalization=norm,
        value=Fraction(total, norm),
        backend=KERNEL_BACKEND,
        elapsed_ms=elapsed,
    )


def enumerate_twisted_tuples(d, g, connected=True, budget=None):
    """Yield the counted tuples (sigma, (eta_1, ..., eta_{g-1}), alpha).

    Deterministic order: sigma ascending, then transposition slots in table
    order (outer slots vary slowest), then alpha ascending.  Transitivity is
    checked independently of the counting kernel, so comparing the length of
    this stream against count_twisted().tuple_count is a real consistency
    test, not a tautology.
    """
    _check_dg(d, g)
    limit = resolve_budget(budget)
    projected = _twisted_projected(d, g)
    if projected > limit:
        raise BudgetExceeded(projected, limit)

    tau = perms.pairing_involution(d)
    etas, eta_taus, alphas, sigmas = _twisted_tables(d)
    n = 2 * d

    for sigma in sigmas:
        lookup = _alpha_lookup(sigma, alphas)

        def walk(product, chosen):
            if len(chosen) == g - 1:
                for ai in lookup.get(bytes(product), ()):
                    alpha = alphas[ai]
                    if connected:
                        gens = [sigma, alpha]
                        gens.extend(etas[e] for e in chosen)
                        gens.extend(eta_taus[e] for e in chosen)
                        if not perms.acts_transitively(gens, n):
                            continue
                    yield sigma, tuple(etas[e] for e in chosen), alpha
                return
            for e in range(len(etas)):
                nxt = perms.compose(etas[e], perms.compose(product, eta_taus[e]))
                yield from walk(nxt, chosen + (e,))

        yield from walk(sigma, ())


@lru_cache(maxsize=None)
def _classical_tables(d):
    group = perms.symmetric_group(d)
    swaps = tuple(
        perms.transposition(d, i, j) for i in range(d) for j in range(i + 1, d)
    )
    return group, swaps


def count_classical(d, g, connected=True, budget=None):
    """Torus cover count: (sigma, tau_1..tau_{2g-2}, alpha) tuples over d!."""
    _check_dg(d, g)
    limit = resolve_budget(budget)
    projected = factorial(d) ** 2 * max(comb(d, 2), 1) ** (2 * g - 2)
    if projected > limit:
        raise BudgetExceeded(projected, limit)
    group, swaps = _classical_tables(d)

    start = perf_counter()
    ident = tuple(range(d))
    moves = tuple((s, ident, (_support(s),)) for s in swaps)
    layer = _layer(d, moves, 2 * g - 2, connected)
    total = sum(
        size * _finish(layer, sigma, group, _alpha_lookup(sigma, group), connected)
        for sigma, size in _orbits(group, group)
    )
    elapsed = (perf_counter() - start) * 1000.0

    return HurwitzResult(
        query=HurwitzQuery("classical", d, g, connected),
        tuple_count=total,
        normalization=factorial(d),
        value=Fraction(total, factorial(d)),
        backend=KERNEL_BACKEND,
        elapsed_ms=elapsed,
    )

