"""Sparse truncated series in one grading variable q and vertex variables x_j.

A term is a coefficient attached to a q-degree and an x-exponent vector.
The q-degree is non-negative and truncated at ``q_cap``; the x-exponents
may be negative (the x's are formal Laurent variables; the quantity of
interest later is the part where every x-exponent is zero).
Multiplication drops any product term whose q-degree exceeds the cap, so
the cap is preserved by construction.

A series can be bound to an edge: ``bound(tail, head, tail_limit,
head_limit)`` returns a view sharing its terms, and a product with a
bound right operand drops the terms whose x-exponent at the tail or head
would exceed its limit as it forms them, before their key or coefficient
is built.  The graph sum binds every propagator to its placement, so its
products form only the term pairs the remaining edges could still
cancel; an unbound product is the exact one.

One q suffices for the graph sum: it sets every edge variable q_k to the
same q and reads the degree-d part, so only the total degree is ever
read.  A per-edge coefficient [q_1^a_1 ... q_r^a_r] is the product of
each factor's degree-a_k slice instead (see ``feynman``).

Coefficients are kept as given (int, Fraction or RadicalScalar): the
graph sum multiplies ints, its radical reference path RadicalScalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from operator import add, itemgetter

from .radicals import RadicalScalar


def _check_scalar(value):
    if isinstance(value, (RadicalScalar, int, Fraction)):
        return value
    raise TypeError("coefficient must be RadicalScalar or rational, got %r" % (value,))


class TruncatedSeries:
    __slots__ = ("x_count", "q_cap", "terms", "limits")

    def __init__(self, x_count: int, q_cap: int, terms=None):
        if x_count < 0 or q_cap < 0:
            raise ValueError("x_count and q_cap must be non-negative")
        self.x_count = int(x_count)
        self.q_cap = int(q_cap)
        clean = {}
        if terms:
            for (degree, xe), coef in terms.items():
                degree = int(degree)
                xe = tuple(int(e) for e in xe)
                if len(xe) != self.x_count:
                    raise ValueError("exponent vector arity mismatch")
                if not 0 <= degree <= self.q_cap:
                    raise ValueError("q-degree %d is outside 0..%d" % (degree, self.q_cap))
                coef = _check_scalar(coef)
                if coef:
                    key = (degree, xe)
                    acc = clean.get(key)
                    clean[key] = coef if acc is None else acc + coef
        self.terms = {k: v for k, v in clean.items() if v}
        self.limits = None  # (tail, head, tail limit, head limit) once bound

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, x_count, q_cap, value) -> "TruncatedSeries":
        return cls(x_count, q_cap, {(0, (0,) * x_count): value})

    def bound(self, tail: int, head: int, tail_limit: int, head_limit: int) -> "TruncatedSeries":
        """A view of this series, sharing its terms, that as the right
        operand of a product drops every term whose x-exponent at ``tail``
        or ``head`` would exceed ``tail_limit`` or ``head_limit`` in
        absolute value."""
        if not (0 <= tail < self.x_count and 0 <= head < self.x_count):
            raise ValueError("tail and head must be x-variables of the series")
        if tail_limit < 0 or head_limit < 0:
            raise ValueError("limits must be non-negative")
        return self._like(self.terms, (tail, head, tail_limit, head_limit))

    def _like(self, terms, limits=None) -> "TruncatedSeries":
        """A series of this shape holding ``terms`` and ``limits`` as
        given, unchecked."""
        result = object.__new__(TruncatedSeries)
        result.x_count, result.q_cap, result.terms, result.limits = (
            self.x_count, self.q_cap, terms, limits)
        return result

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other):
        """The product truncated at the cap; when ``other`` is bound (see
        ``bound``), only its terms within the limits at the edge's ends."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.x_count != other.x_count or self.q_cap != other.q_cap:
            raise ValueError("series have different variables or caps")
        cap = self.q_cap
        limits = other.limits
        # an unbound product checks the ends against limits nothing reaches
        tail, head, tail_limit, head_limit = limits or (0, 0, inf, inf)
        right = [(db, xb[tail] if limits else 0, xb[head] if limits else 0, xb, cb)
                 for (db, xb), cb in other.terms.items()]
        right.sort(key=itemgetter(0))  # so a left term stops at its room
        out = {}
        for (da, xa), ca in self.terms.items():
            room = cap - da
            ta, ha = (xa[tail], xa[head]) if limits else (0, 0)
            # |ta + tb| <= tail_limit, |ha + hb| <= head_limit, without abs
            t_lo, t_hi = -tail_limit - ta, tail_limit - ta
            h_lo, h_hi = -head_limit - ha, head_limit - ha
            for db, tb, hb, xb, cb in right:
                if db > room:
                    break
                if not (t_lo <= tb <= t_hi and h_lo <= hb <= h_hi):
                    continue
                key = (da + db, tuple(map(add, xa, xb)))
                prod = ca * cb
                acc = out.get(key)
                out[key] = prod if acc is None else acc + prod
        return self._like({k: v for k, v in out.items() if v})

    # -- extraction ----------------------------------------------------------

    def degree_part(self, degree) -> "TruncatedSeries":
        """The terms of q-degree ``degree``, bound as this series is."""
        return self._like({k: c for k, c in self.terms.items() if k[0] == degree}, self.limits)

    def coefficient(self, degree, xexp) -> RadicalScalar | Fraction | int:
        """The coefficient of one term; int 0 when the series has none."""
        return self.terms.get((degree, tuple(xexp)), 0)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "TruncatedSeries(%d x-vars, cap %d, %d terms)" % (
            self.x_count,
            self.q_cap,
            len(self.terms),
        )
