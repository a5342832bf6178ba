"""Bosonic Fock-space pipeline for the disconnected twisted counts.

States are finite linear combinations of basis vectors b_mu indexed by
partitions, with coefficients that are polynomials in a bookkeeping variable
z (z grades the number of 4-valent vertices in the covers the matrix
elements enumerate).  The ladder operators alpha_n obey

    [alpha_n, alpha_m] = n * delta(n, -m),

negative indices create parts, positive ones annihilate them, and the inner
product makes alpha_n adjoint to alpha_{-n} with <v_empty|v_empty> = 1, so
<b_mu|b_nu> = delta(mu,nu) * prod(mu_i) * |Aut(mu)|.

The vertex operator is

    M = 2 * ( sum_{k>0} (k-1) * alpha_{-k} alpha_k * z
              + 1/2 * sum_{i,j>0} (alpha_{-j} alpha_{-i} alpha_{i+j}
                                   + alpha_{-(i+j)} alpha_i alpha_j) ).

M is self-adjoint: the adjoint reverses products and sends alpha_n to
alpha_{-n}, so it fixes alpha_{-k} alpha_k and swaps each cut term
alpha_{-j} alpha_{-i} alpha_{i+j} with the join term alpha_{-(i+j)} alpha_i
alpha_j (z is a real bookkeeping variable).  Hence <b_mu|M^p|b_nu> =
<M^a b_mu | M^(p-a) b_nu> for every 0 <= a <= p.  matrix_element takes
a = ceil(p/2); when mu = nu the M^floor(p/2) vector is a link of the same
chain, so ceil(p/2) applications of M replace p.

The disconnected twisted double number with profiles mu, nu and g-1 branch
points is

    (1 / (prod mu_i * prod nu_j)) *
        sum_c coef_{z^c} <b_mu | M^{g-1} | b_nu> * 2^{(g-c+1)/2} / 2^{c+1},

and the disconnected invariant of the elliptic curve sums this over mu = nu
running through partitions of d, weighted by prod mu_i / |Aut(mu)|, as
elliptic_from_doubles assembles it.  Note the per-branch-point doubling
lives entirely in the vertex operator's global factor of 2 (M^{g-1}
contributes 2^{g-1}); applying another 2^{g-1} on top would double-count
it, as the cross-check against the factorization pipeline shows.  Only
even exponents g-c+1 may carry nonzero coefficients; a nonzero coefficient
at odd g-c+1 signals a transcription bug and raises ParityViolation instead
of being silently skipped.

Every matrix element is a polynomial with integer coefficients: alpha_{-k}
inserts a part k with coefficient 1, alpha_k removes one with coefficient
k * m_k (m_k the number of parts equal to k), and M's own coefficients are
2(k-1) and 1 once its 2 * 1/2 prefactor is cancelled against the ordered
pairs (i, j).  So the z-polynomials hold ints.

The elliptic count is a trace.  Write P for the prefactor sum, which is
linear, p = g-1, and [b_mu] v for the coefficient of b_mu in v.  After the
double number's 1/prod(mu_i)^2, partition mu contributes P(<b_mu|M^p|b_mu>)
with weight 1/(|Aut(mu)| prod mu_i), and that weight is 1/<b_mu|b_mu>.
The basis is orthogonal, so <b_mu|M^p|b_mu> = <b_mu|b_mu> * [b_mu] M^p b_mu,
and the count is

    P(T),    T(z) = sum_{mu |- d} [b_mu] M^p b_mu,

the trace of M^p on the degree-d states.  elliptic_disconnected reads each
term as <M^ceil(p/2) b_mu | M^floor(p/2) b_mu>, which is <b_mu|M^p|b_mu> by
self-adjointness, and divides it by <b_mu|b_mu>.  Each division is exact
coefficient by coefficient: [b_mu] M^p b_mu is an integer polynomial,
because M has integer coefficients in the basis.  A remainder would mean a
broken split or a broken norm, and raises instead of being truncated.  So T
is summed in ints, and Fraction enters only in the one prefactor sum P(T)
and in the double numbers' division by prod mu_i * prod nu_j.
"""

from __future__ import annotations

import warnings
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod as parts_product  # product of a partition's parts

from .graphs import multiset_automorphisms as aut_count  # |Aut(mu)|

# ---------------------------------------------------------------------------
# partitions


def partitions(n):
    """All partitions of n as weakly decreasing tuples, reverse-lex order."""
    if n == 0:
        yield ()
        return

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def check_partition(mu):
    mu = tuple(mu)
    if any(type(p) is not int for p in mu):
        raise TypeError("partition parts must be integers: %r" % (mu,))
    if any(p < 1 for p in mu):
        raise ValueError("partition parts must be positive: %r" % (mu,))
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError("partition must be weakly decreasing: %r" % (mu,))
    return mu


# ---------------------------------------------------------------------------
# z-polynomials


class ZPoly:
    """Polynomial in z, dict {exponent: coeff}.  Coefficients are kept as
    given (ints on every path of this module) and zeros are dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def const(cls, c):
        return cls({0: c})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return ZPoly(out)

    def __mul__(self, other):
        if isinstance(other, ZPoly):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
            return ZPoly(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        return ZPoly({e: v * c for e, v in self.coeffs.items()})

    def coefficient(self, e):
        return self.coeffs.get(e, 0)

    def degree(self):
        return max(self.coeffs, default=0)

    def __eq__(self, other):
        if isinstance(other, ZPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == ZPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                bits.append(str(c))
            elif e == 1:
                bits.append(f"{c}*z")
            else:
                bits.append(f"{c}*z^{e}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Fock vectors


class FockVector:
    """Finite sum of z-polynomial multiples of basis vectors b_mu.

    Treated as immutable: all operations return new vectors.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {mu: p for mu, p in (terms or {}).items() if p}

    @classmethod
    def basis(cls, mu):
        return cls({check_partition(mu): ZPoly.const(1)})

    @classmethod
    def zero(cls):
        return cls({})

    def __add__(self, other):
        out = dict(self.terms)
        for mu, p in other.terms.items():
            out[mu] = out.get(mu, ZPoly()) + p
        return FockVector(out)

    def scale(self, c):
        if isinstance(c, ZPoly):
            return FockVector({mu: p * c for mu, p in self.terms.items()})
        return FockVector({mu: p.scale(c) for mu, p in self.terms.items()})

    def coefficient(self, mu):
        return self.terms.get(tuple(mu), ZPoly())

    def __eq__(self, other):
        return isinstance(other, FockVector) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        bits = [f"({p})*b{mu}" for mu, p in sorted(self.terms.items())]
        return "FockVector(" + " + ".join(bits) + ")"


def b(mu):
    return FockVector.basis(mu)


def apply_alpha(n, v):
    """Act by the ladder operator alpha_n on a vector (n != 0).

    alpha_{-k} (k>0) inserts a part k; alpha_k removes one part k and
    multiplies by k * (number of parts equal to k), the normal-ordering
    constant from [alpha_k, alpha_{-k}] = k.
    """
    if n == 0:
        raise ValueError("alpha_0 is central; n must be non-zero")
    out = {}
    for mu, poly in v.terms.items():
        if n < 0:
            key = tuple(sorted(mu + (-n,), reverse=True))
            out[key] = out.get(key, ZPoly()) + poly
        else:
            mult = mu.count(n)
            if mult == 0:
                continue
            lst = list(mu)
            lst.remove(n)
            key = tuple(lst)
            out[key] = out.get(key, ZPoly()) + poly.scale(n * mult)
    return FockVector(out)


@lru_cache(maxsize=None)
def _norm(mu):
    """<b_mu|b_mu> = prod(mu) * |Aut(mu)|, once per partition."""
    return parts_product(mu) * aut_count(mu)


def _pairing(u, v):
    """<u|v> as a dict {z exponent: int}, summed in place; zeros may remain."""
    out = {}
    vterms = v.terms
    for mu, pu in u.terms.items():
        pv = vterms.get(mu)
        if pv:
            norm = _norm(mu)
            right = pv.coeffs.items()
            for e1, c1 in pu.coeffs.items():
                c1 *= norm
                for e2, c2 in right:
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def inner_product(u, v):
    """<u|v> as a ZPoly; basis vectors satisfy <b_mu|b_nu> = delta * prod(mu) * |Aut|."""
    return ZPoly(_pairing(u, v))


@lru_cache(maxsize=None)
def _transitions(mu):
    """M b_mu as (nu, factor, shift) triples: M b_mu = sum factor * z^shift * b_nu."""
    out = Counter()  # (nu, shift) -> integer factor
    for k in set(mu):
        rest = list(mu)
        rest.remove(k)
        lowered = k * mu.count(k)  # alpha_k b_mu = lowered * b_rest
        # 2 z (k-1) alpha_{-k} alpha_k
        if k > 1:
            out[mu, 1] += 2 * (k - 1) * lowered
        # sum over ordered pairs i,j>0 (the operator's 2 * 1/2 prefactor
        # cancels against unordering): alpha_{-j} alpha_{-i} alpha_{i+j}
        # (cut a part into two)
        for i in range(1, k):
            out[tuple(sorted(rest + [i, k - i], reverse=True)), 0] += lowered
        # alpha_{-(i+j)} alpha_i alpha_j  (join two parts)
        for i in set(rest):
            joined = list(rest)
            joined.remove(i)
            nu = tuple(sorted(joined + [i + k], reverse=True))
            out[nu, 0] += lowered * i * rest.count(i)
    return tuple((nu, factor, shift) for (nu, shift), factor in out.items())


def apply_m(v, energy_cap):
    """One application of the vertex operator M (energy-preserving).

    energy_cap bounds the partition sizes that may appear; since M preserves
    the energy grading this is a precondition check, not a truncation.
    M b_mu is read from _transitions, built once per partition, and the
    terms of v are summed into one dict before the vector is built.
    """
    for mu in v.terms:
        if sum(mu) > energy_cap:
            raise ValueError(
                "vector has energy %d above cap %d" % (sum(mu), energy_cap)
            )
    out = {}  # partition -> {z exponent: coefficient}
    for mu, poly in v.terms.items():
        coeffs = poly.coeffs.items()
        for nu, factor, shift in _transitions(mu):
            acc = out.setdefault(nu, {})
            for e, c in coeffs:
                acc[e + shift] = acc.get(e + shift, 0) + factor * c
    return FockVector({mu: ZPoly(coeffs) for mu, coeffs in out.items()})


def _halves(mu, nu, power):
    """(M^ceil(p/2) b_mu, M^floor(p/2) b_nu) for valid partitions of one size,
    p = power; when mu == nu the second is a link of the first's chain."""
    cap = sum(nu)
    half = power // 2
    chain = [FockVector({mu: ZPoly.const(1)})]
    for _ in range(power - half):
        chain.append(apply_m(chain[-1], cap))
    if mu == nu:
        return chain[-1], chain[half]
    right = FockVector({nu: ZPoly.const(1)})
    for _ in range(half):
        right = apply_m(right, cap)
    return chain[-1], right


def matrix_element(mu, nu, power):
    """<b_mu | M^power | b_nu> as a ZPoly (zero when sizes differ), split
    by self-adjointness as the module docstring derives."""
    mu, nu = check_partition(mu), check_partition(nu)
    if power < 0:
        raise ValueError("power must be >= 0, got %r" % (power,))
    if sum(mu) != sum(nu):
        return ZPoly()
    return inner_product(*_halves(mu, nu, power))


# ---------------------------------------------------------------------------
# twisted counts


class ParityViolation(RuntimeError):
    """A nonzero z^c coefficient appeared where g - c + 1 is odd."""


def _prefactor_sum(poly, g):
    """sum_c coef_{z^c}(poly) * 2^{(g-c+1)/2} / 2^{c+1}, checking z-parity
    (a ZPoly holds no zero coefficient)."""
    total = Fraction(0)
    for c, coef in sorted(poly.coeffs.items()):
        if (g - c + 1) % 2:
            raise ParityViolation(
                "nonzero z^%d coefficient %s at g=%d: exponent (g-c+1)/2 "
                "is not an integer; vertex-count parity is broken" % (c, coef, g)
            )
        total += coef * Fraction(2 ** ((g - c + 1) // 2), 2 ** (c + 1))
    return total


def twisted_double_disconnected(mu, nu, g):
    """Disconnected twisted double number with profiles mu, nu and g-1 branch points.

    Returns 0 (with a RuntimeWarning) when |mu| != |nu|: energy conservation
    makes every matrix element vanish, so the query is almost surely a typo.
    """
    mu, nu = check_partition(mu), check_partition(nu)
    if g < 1:
        raise ValueError("g must be >= 1, got %r" % (g,))
    if sum(mu) != sum(nu):
        warnings.warn(
            "profile sizes differ (%d vs %d); count is 0" % (sum(mu), sum(nu)),
            RuntimeWarning,
            stacklevel=2,
        )
        return Fraction(0)
    me = matrix_element(mu, nu, g - 1)
    return _prefactor_sum(me, g) / (parts_product(mu) * parts_product(nu))


@lru_cache(maxsize=None)
def elliptic_disconnected(d, g):
    """Disconnected twisted invariant of the elliptic curve, degree d, genus g:
    the prefactor sum of the integer trace of M^(g-1) on degree d."""
    if d < 1 or g < 1:
        raise ValueError("need d >= 1 and g >= 1")
    trace = {}
    for mu in partitions(d):
        norm = _norm(mu)
        for e, c in _pairing(*_halves(mu, mu, g - 1)).items():
            quotient, remainder = divmod(c, norm)
            if remainder:
                raise ArithmeticError(
                    "<b_mu|M^%d|b_mu> has z^%d coefficient %d, not a multiple "
                    "of <b_mu|b_mu> = %d for mu = %r" % (g - 1, e, c, norm, mu)
                )
            trace[e] = trace.get(e, 0) + quotient
    return _prefactor_sum(ZPoly(trace), g)


def elliptic_from_doubles(d, g):
    """Same invariant assembled from the double numbers; must agree with
    elliptic_disconnected identically (the weights cancel one prod mu_i)."""
    if d < 1 or g < 1:
        raise ValueError("need d >= 1 and g >= 1")
    total = Fraction(0)
    for mu in partitions(d):
        total += (
            Fraction(parts_product(mu), aut_count(mu))
            * twisted_double_disconnected(mu, mu, g)
        )
    return total
