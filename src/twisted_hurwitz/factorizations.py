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
the states (E, P), each step applying one admissible transposition and
carrying the number of sequences that reach the state, gives the
contribution of every sequence for every sigma at once (`_layer`); the
right factor tau E^{-1} tau, a function of E, is formed when E first
appears.  One layer tracks P for both counts: a disconnected count sums
the multiplicities over P, so connected and disconnected queries at one
(d, g) share the same memoised layer.  The layer for g-1 slots is built
from the one for g-2, so genus g reuses the work of genus g-1.  A sigma is
finished (`count_for_sigma`) by looking each state's product up in the
table of alpha sigma alpha^{-1}: the state adds its multiplicity once per
matching alpha, and for connected counts only for the alphas with
P v sigma v alpha transitive (all of them when P v sigma already is).
`_finish` first sums the multiplicities by (product, P v sigma), then
tests each pair once per cycle partition of its matching alphas, joining
only the points that sigma and alpha move.  Permutations and partitions
are bytes (p[i] the image of i, P[i] the least point of i's block):
q.translate(p padded by the identity to 256 bytes) is p * q, a block
merge is one bytes.replace, and P is one block iff it is bytes(n).

Conjugating a whole tuple by beta in B_d gives another counted tuple: beta
commutes with tau, so it maps B~_d, B_d and the admissible transpositions
((beta i, beta j) with beta j != tau(beta i)) to themselves; it conjugates
both sides of the equation alike; and it relabels the points, which keeps
transitivity.  The count for sigma therefore depends only on the B_d-orbit
of sigma, and the total is the sum over orbit representatives of orbit size
times the representative's count; the representatives share one layer.

The orbits in closed form
-------------------------
(Macdonald, *Symmetric Functions and Hall Polynomials*, ch. VII.2.)  Every
sigma in B~_d is tau * m for a perfect matching m of the 2d points
(`perms.twist_admissible_set`).  In the graph on the 2d points with the
edges of tau and of m, each component is a cycle of 2k points that
alternates tau-edges and m-edges; sigma = tau * m moves two steps along
such a cycle, so it acts there as two k-cycles, and tau swaps them.  The
half-lengths k form the coset type lambda |- d of m, and sigma has cycle
type lambda u lambda.  beta in B_d maps the graph of m onto that of
beta m beta^{-1} edge for edge, so it keeps the coset type; and B_d is
transitive on the matchings of one coset type (map the components
of one onto those of the other, tau-edge onto tau-edge).  The stabiliser
of m is the group of colour-preserving symmetries of its graph: 2k on each
2k-cycle (k rotations by an even number of steps, k reflections) times
the permutations of equal components, z_{2 lambda} = 2^l(lambda) z_lambda
in all.  So there is one orbit per partition lambda of d, of
|B_d| / z_{2 lambda} = 2^(d - l(lambda)) d! / z_lambda elements
(`_sigma_orbits`).  Its representative sigma_lambda is pi_lambda^{-1} on
the points 0..d-1 and pi_lambda + d on d..2d-1, where pi_lambda cycles
consecutive blocks of sizes lambda: tau sigma_lambda tau = sigma_lambda^{-1},
and no cycle of sigma_lambda meets both halves.

The classical count runs the same layer builder with E = tau_{2g-2} * ...
* tau_1 in S_d, product E * sigma (the right factor stays the identity),
steps joining {i, j}, and sigma summed over the conjugacy classes of S_d:
the class of cycle type lambda holds pi_lambda and d! / z_lambda elements
(`_classes`).

Searches are budgeted: a query raises BudgetExceeded when the tuple tree a
direct search would walk (sigmas times transposition sequences times
alphas, not the smaller work of the dynamic program) exceeds *budget*,
10**9 nodes when omitted; the sizes come from closed forms, so a refused
query builds no table.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import perms
from .fock import aut_count, partitions, parts_product
from .record import Record

DEFAULT_BUDGET = 10**9

#: the one counting backend, stamped into each benchmark run record (perfbench)
KERNEL_BACKEND = "python"

_IDENTITY = bytes(range(256))  # slices give the kernel's identities and table pads


class BudgetExceeded(RuntimeError):
    """Raised when a query's projected search size exceeds the budget."""

    def __init__(self, projected, budget):
        super().__init__(
            "projected search size %d exceeds budget %d; "
            "pass a larger budget= (--budget)" % (projected, budget)
        )
        self.projected = projected
        self.budget = budget


class HurwitzResult(Record):
    """A count: its tuples, the normalization they are divided by, and the
    quotient as a Fraction."""

    __slots__ = _fields = ("tuple_count", "normalization", "value")


def _admit(d, g, budget, projected):
    """Reject a bad (d, g), then refuse the query if projected(d, g)
    exceeds the budget (DEFAULT_BUDGET when None); called before any
    table is built."""
    if d < 1:
        raise ValueError("degree d must be >= 1, got %r" % (d,))
    if g < 1:
        raise ValueError("genus g must be >= 1, got %r" % (g,))
    limit = DEFAULT_BUDGET if budget is None else int(budget)
    size = projected(d, g)
    if size > limit:
        raise BudgetExceeded(size, limit)


def _result(total, norm):
    """*total* tuples over *norm*."""
    return HurwitzResult(tuple_count=total, normalization=norm, value=Fraction(total, norm))


@lru_cache(maxsize=None)
def _twisted_tables(d):
    """(etas, eta_taus, alphas, sigmas) for degree d, all sorted tuples."""
    tau = perms.pairing_involution(d)
    etas = tuple(perms.admissible_transpositions(d))
    eta_taus = tuple(perms.conjugate(e, tau) for e in etas)
    alphas = tuple(perms.hyperoctahedral_group(d))
    sigmas = tuple(perms.twist_admissible_set(d))
    return etas, eta_taus, alphas, sigmas


_GROUP_BYTES = {}  # id(group) -> (group, its bytes); a held group's id is not reused


def _group_bytes(group):
    """Each permutation of *group* with its inverse and its cycle partition,
    as bytes; permutations with the same cycles share one partition.
    Memoised by the group object's identity, so a repeat call, once per
    sigma orbit with the degree's one cached table, does not hash the
    whole group."""
    entry = _GROUP_BYTES.get(id(group))
    if entry is None:
        interned, out = {}, []
        for p in group:
            cycles = _join(_IDENTITY[:len(p)], enumerate(p))
            out.append((bytes(p), bytes(perms.inverse(p)), interned.setdefault(cycles, cycles)))
        entry = _GROUP_BYTES[id(group)] = (group, tuple(out))
    return entry[1]


def _alpha_lookup(sigma, alphas):
    """Map bytes(alpha sigma alpha^{-1}) -> list of alpha indices."""
    table, pad, sigma = {}, _IDENTITY[len(sigma):], bytes(sigma)
    for ai, (alpha, inverse, _) in enumerate(_group_bytes(alphas)):
        table.setdefault(inverse.translate(sigma.translate(alpha + pad) + pad), []).append(ai)
    return table


def _twisted_projected(d, g):
    """|B~_d| * |eta|^(g-1) * |B_d| from the closed forms (2d-1)!!,
    C(2d, 2) - d and 2^d d!, so a refusal builds no table."""
    sigmas = factorial(2 * d) // (2**d * factorial(d))
    etas = comb(2 * d, 2) - d
    return sigmas * etas ** (g - 1) * 2**d * factorial(d)


def _classical_projected(d, g):
    """|S_d|^2 * |swaps|^(2g-2) from the closed forms d! and C(d, 2)."""
    return factorial(d) ** 2 * max(comb(d, 2), 1) ** (2 * g - 2)


@lru_cache(maxsize=None)
def _classes(d):
    """(lambda, pi_lambda, d!/z_lambda) for each partition lambda of d.

    pi_lambda cycles consecutive blocks of sizes lambda (0 -> 1 -> ... ->
    lambda_1 - 1 -> 0, then the next block), so it has cycle type lambda,
    and its conjugacy class in S_d has d!/z_lambda elements.
    """
    out = []
    for lam in partitions(d):
        pi, start = [], 0
        for part in lam:
            pi += range(start + 1, start + part)
            pi.append(start)
            start += part
        out.append((lam, tuple(pi), factorial(d) // (parts_product(lam) * aut_count(lam))))
    return tuple(out)


@lru_cache(maxsize=None)
def _sigma_orbits(d):
    """B_d-orbits of B~_d as (sigma_lambda, 2^(d - l(lambda)) d!/z_lambda)
    pairs, one per partition lambda of d (see the module docstring)."""
    return tuple(
        (perms.inverse(pi) + tuple(x + d for x in pi), 2 ** (d - len(lam)) * size)
        for lam, pi, size in _classes(d)
    )


def _support(t):
    """The two points a transposition moves."""
    return tuple(i for i, x in enumerate(t) if x != i)


def _moved(p):
    """The (i, p[i]) pairs with p[i] != i."""
    return [(i, x) for i, x in enumerate(p) if x != i]


def _join(labels, pairs):
    """Partition *labels* (each point labelled by the least point of its
    block) with the blocks of each pair merged."""
    for a, b in pairs:
        la, lb = labels[a], labels[b]
        if la != lb:
            if la > lb:
                la, lb = lb, la
            labels = labels.replace(_IDENTITY[lb:lb + 1], _IDENTITY[la:la + 1])
    return labels


@lru_cache(maxsize=None)
def _moves(etas, eta_taus):
    """The `_layer` moves of one degree, built once per degree."""
    return tuple(
        (bytes(eta) + _IDENTITY[len(eta):], bytes(eta_t), (_support(eta), _support(eta_t)))
        for eta, eta_t in zip(etas, eta_taus)
    )


@lru_cache(maxsize=None)
def _layer(n, moves, depth):
    """{left: (right, {P: sequences})} over all sequences of *depth* moves.

    A move (step, right_step, pairs) multiplies the left factor by *step*
    (a translate table) on the left and the right factor by *right_step*
    on the right, and joins *pairs* in the partition P.  The product after
    the sequence is left * sigma * right, and right is a function of left
    (tau left^{-1} tau, or the identity), formed when left first appears.
    """
    ident = _IDENTITY[:n]
    if depth == 0:
        return {ident: (ident, {ident: 1})}
    out, joins = {}, [{} for _ in moves]  # per move: P -> P joined by the move
    for left, (right, parts) in _layer(n, moves, depth - 1).items():
        right_table = right + _IDENTITY[n:]
        for (step, right_step, pairs), joined in zip(moves, joins):
            after = left.translate(step)
            state = out.get(after)
            if state is None:
                state = out[after] = (right_step.translate(right_table), {})
            bucket = state[1]
            for part, mult in parts.items():
                nxt = joined.get(part)
                if nxt is None:
                    nxt = joined[part] = _join(part, pairs)
                bucket[nxt] = bucket.get(nxt, 0) + mult
    return out


def _finish(layer, sigma, alphas, lookup, connected):
    """Tuples completing *sigma*, summed over the states of *layer*."""
    one_block, pad = bytes(len(sigma)), _IDENTITY[len(sigma):]
    sigma_table, sigma_pairs = bytes(sigma) + pad, _moved(sigma)
    total = 0
    hits = {}  # product -> {P v sigma: sequences}
    with_sigma = {}  # P -> P v sigma
    for left, (right, parts) in layer.items():
        product = right.translate(sigma_table).translate(left + pad)
        if product not in lookup:
            continue
        if not connected:
            total += len(lookup[product]) * sum(parts.values())
            continue
        bases = hits.setdefault(product, {})
        for part, mult in parts.items():
            base = with_sigma.get(part)
            if base is None:
                base = with_sigma[part] = _join(part, sigma_pairs)
            bases[base] = bases.get(base, 0) + mult
    cycles = _group_bytes(alphas)
    moved = {}  # alpha cycle partition -> its moved points' (point, label) pairs
    for product, bases in hits.items():
        cand = lookup[product]
        counted = None  # the matching alphas, counted by cycle partition
        for base, mult in bases.items():
            if base == one_block:
                total += mult * len(cand)
                continue
            if counted is None:
                counted = []
                for part, size in Counter(cycles[ai][2] for ai in cand).items():
                    pairs = moved.get(part)
                    if pairs is None:
                        pairs = moved[part] = _moved(part)
                    counted.append((pairs, size))
            total += mult * sum(size for pairs, size in counted if _join(base, pairs) == one_block)
    return total


def count_for_sigma(sigma, etas, eta_taus, alphas, lookup, depth, connected):
    """Number of (eta_1..eta_depth, alpha) completions for this sigma.

    sigma, etas[e], eta_taus[e], alphas[a]: permutations as int tuples.
    lookup: dict  bytes(alpha sigma alpha^{-1}) -> list of indices into alphas.
    depth: number of transposition slots (g - 1; may be 0).
    connected: require the tuple's group to act transitively.

    The sequences come from the memoised layer of transposition products
    (see the module docstring), which every sigma of the degree shares.
    """
    layer = _layer(len(sigma), _moves(etas, eta_taus), depth)
    return _finish(layer, sigma, alphas, lookup, connected)


def count_twisted(d, g, connected=True, budget=None, threads=1):
    """Twisted degree-d genus-g count as an exact Fraction (in a HurwitzResult).

    The count runs in this process: every sigma shares the one memoised
    layer, so there is no per-sigma work worth spreading over processes.
    *threads* is accepted for compatibility and ignored.
    """
    _admit(d, g, budget, _twisted_projected)
    etas, eta_taus, alphas, _ = _twisted_tables(d)
    total = sum(
        size * count_for_sigma(
            sigma, etas, eta_taus, alphas, _alpha_lookup(sigma, alphas), g - 1, connected
        )
        for sigma, size in _sigma_orbits(d)
    )
    return _result(total, 2**d * factorial(d))


def enumerate_twisted_tuples(d, g, connected=True, budget=None):
    """Yield the counted tuples (sigma, (eta_1, ..., eta_{g-1}), alpha).

    Deterministic order: sigma ascending, then transposition slots in table
    order (outer slots vary slowest), then alpha ascending.  Transitivity is
    checked independently of the counting kernel, so comparing the length of
    this stream against count_twisted().tuple_count is a real consistency
    test, not a tautology.
    """
    _admit(d, g, budget, _twisted_projected)
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
    """(S_d, the `_layer` moves of its transpositions)."""
    swaps = (perms.transposition(d, i, j) for i in range(d) for j in range(i + 1, d))
    moves = tuple((bytes(s) + _IDENTITY[d:], _IDENTITY[:d], (_support(s),)) for s in swaps)
    return tuple(perms.symmetric_group(d)), moves


def count_classical(d, g, connected=True, budget=None):
    """Torus cover count: (sigma, tau_1..tau_{2g-2}, alpha) tuples over d!."""
    _admit(d, g, budget, _classical_projected)
    group, moves = _classical_tables(d)
    layer = _layer(d, moves, 2 * g - 2)
    total = sum(
        size * _finish(layer, pi, group, _alpha_lookup(pi, group), connected)
        for _, pi, size in _classes(d)
    )
    return _result(total, factorial(d))
