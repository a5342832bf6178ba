"""Sparse truncated series in edge variables q_k and vertex variables x_j.

A term is a coefficient attached to a pair of exponent vectors:
q-exponents, which are non-negative and truncated in *total* degree by
``q_cap``, and x-exponents, which may be negative (the x's are formal
Laurent variables; the quantity of interest later is the part where
every x-exponent is zero).  Multiplication drops any product term whose
total q-degree exceeds the cap, so the cap is preserved by construction.

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
    __slots__ = ("q_count", "x_count", "q_cap", "terms")

    def __init__(self, q_count: int, x_count: int, q_cap: int, terms=None):
        if q_count < 0 or x_count < 0:
            raise ValueError("variable counts must be non-negative")
        if q_cap < 0:
            raise ValueError("q_cap must be non-negative")
        self.q_count = int(q_count)
        self.x_count = int(x_count)
        self.q_cap = int(q_cap)
        clean = {}
        if terms:
            for (qe, xe), coef in terms.items():
                qe = tuple(int(e) for e in qe)
                xe = tuple(int(e) for e in xe)
                if len(qe) != self.q_count or len(xe) != self.x_count:
                    raise ValueError("exponent vector arity mismatch")
                if any(e < 0 for e in qe):
                    raise ValueError("q-exponents must be non-negative")
                if sum(qe) > self.q_cap:
                    raise ValueError("term exceeds the q-degree cap")
                coef = _check_scalar(coef)
                if coef:
                    key = (qe, xe)
                    acc = clean.get(key)
                    clean[key] = coef if acc is None else acc + coef
        self.terms = {k: v for k, v in clean.items() if v}

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, q_count, x_count, q_cap, value) -> "TruncatedSeries":
        zero_q = (0,) * q_count
        zero_x = (0,) * x_count
        return cls(q_count, x_count, q_cap, {(zero_q, zero_x): value})

    @classmethod
    def monomial(cls, q_count, x_count, q_cap, qexp, xexp, value) -> "TruncatedSeries":
        return cls(q_count, x_count, q_cap, {(tuple(qexp), tuple(xexp)): value})

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other):
        if (
            self.q_count != other.q_count
            or self.x_count != other.x_count
            or self.q_cap != other.q_cap
        ):
            raise ValueError("series have different variables or caps")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for key, coef in other.terms.items():
            acc = out.get(key)
            out[key] = coef if acc is None else acc + coef
        result = TruncatedSeries(self.q_count, self.x_count, self.q_cap)
        result.terms = {k: v for k, v in out.items() if v}
        return result

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        cap = self.q_cap
        right = [(qb, xb, sum(qb), cb) for (qb, xb), cb in other.terms.items()]
        out = {}
        for (qa, xa), ca in self.terms.items():
            room = cap - sum(qa)
            for qb, xb, degree, cb in right:
                if degree > room:
                    continue
                key = (tuple(map(add, qa, qb)), tuple(map(add, xa, xb)))
                prod = ca * cb
                acc = out.get(key)
                out[key] = prod if acc is None else acc + prod
        result = TruncatedSeries(self.q_count, self.x_count, cap)
        result.terms = {k: v for k, v in out.items() if v}
        return result

    def scale(self, value) -> "TruncatedSeries":
        value = _check_scalar(value)
        result = TruncatedSeries(self.q_count, self.x_count, self.q_cap)
        result.terms = {k: v for k, v in ((k, c * value) for k, c in self.terms.items()) if v}
        return result

    # -- extraction ----------------------------------------------------------

    def coefficient(self, qexp, xexp) -> RadicalScalar:
        key = (tuple(qexp), tuple(xexp))
        return self.terms.get(key, RadicalScalar())

    def x_constant_part(self) -> dict:
        """Map q-exponent vector -> coefficient, over terms with all x-exponents 0."""
        zero_x = (0,) * self.x_count
        return {qe: coef for (qe, xe), coef in self.terms.items() if xe == zero_x}

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.q_count == other.q_count
            and self.x_count == other.x_count
            and self.q_cap == other.q_cap
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.q_count, self.x_count, self.q_cap, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "TruncatedSeries(%d q-vars, %d x-vars, cap %d, %d terms)" % (
            self.q_count,
            self.x_count,
            self.q_cap,
            len(self.terms),
        )
