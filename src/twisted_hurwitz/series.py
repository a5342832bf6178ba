"""Sparse truncated series in one grading variable q and vertex variables x_j.

A term is a coefficient attached to a q-degree and an x-exponent vector.
The q-degree is non-negative and truncated at ``q_cap``; the x-exponents
may be negative (the x's are formal Laurent variables; the quantity of
interest later is the part where every x-exponent is zero).
Multiplication drops any product term whose q-degree exceeds the cap, so
the cap is preserved by construction.

One q suffices for the graph sum: it sets every edge variable q_k to the
same q and reads the degree-d part, so only the total degree is ever
read.  A per-edge coefficient [q_1^a_1 ... q_r^a_r] is the product of
each factor's degree-a_k slice instead (see ``feynman``).

Coefficients are kept as given (int, Fraction or RadicalScalar): the
graph sum multiplies ints, its radical reference path RadicalScalars.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .radicals import RadicalScalar


def _check_scalar(value):
    if isinstance(value, (RadicalScalar, int, Fraction)):
        return value
    raise TypeError("coefficient must be RadicalScalar or rational, got %r" % (value,))


class TruncatedSeries:
    __slots__ = ("x_count", "q_cap", "terms")

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

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, x_count, q_cap, value) -> "TruncatedSeries":
        return cls(x_count, q_cap, {(0, (0,) * x_count): value})

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.x_count != other.x_count or self.q_cap != other.q_cap:
            raise ValueError("series have different variables or caps")
        cap = self.q_cap
        right = [(db, xb, cb) for (db, xb), cb in other.terms.items()]
        out = {}
        for (da, xa), ca in self.terms.items():
            room = cap - da
            for db, xb, cb in right:
                if db > room:
                    continue
                key = (da + db, tuple(map(add, xa, xb)))
                prod = ca * cb
                acc = out.get(key)
                out[key] = prod if acc is None else acc + prod
        result = TruncatedSeries(self.x_count, cap)
        result.terms = {k: v for k, v in out.items() if v}
        return result

    # -- extraction ----------------------------------------------------------

    def degree_part(self, degree) -> "TruncatedSeries":
        """The terms of q-degree ``degree``."""
        result = TruncatedSeries(self.x_count, self.q_cap)
        result.terms = {k: c for k, c in self.terms.items() if k[0] == degree}
        return result

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
