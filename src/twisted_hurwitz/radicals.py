"""Exact arithmetic in the rationals extended by square roots of integers.

A value is a finite sum  sum_r q_r * sqrt(r)  with rational q_r and
square-free positive radicands r; the radicand 1 carries the rational
part.  Products re-normalize immediately (sqrt(a)*sqrt(b) = s*sqrt(r)
with a*b = s*s*r and r square-free), so the set {sqrt(r) : r square-free}
stays a basis, equality is term-by-term, and a value is rational exactly
when no radicand other than 1 survives.  That last property is used as a
correctness oracle: balanced weight configurations must make every
sqrt(w-1) factor pair up.
"""

from __future__ import annotations

from fractions import Fraction


def squarefree_split(n: int):
    """Split n >= 1 as s*s*r with r square-free; returns (s, r)."""
    if n < 1:
        raise ValueError("need a positive integer, got %r" % (n,))
    s, r, m = 1, 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                r *= p
        p += 1 if p == 2 else 2
    return s, r * m


class RadicalScalar:
    """Finite rational combination of square roots of square-free integers."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for r, q in terms.items():
                r = int(r)
                if squarefree_split(r)[0] != 1:
                    raise ValueError("radicand %d is not square-free" % r)
                if not isinstance(q, Fraction):
                    q = Fraction(q)
                if q:
                    clean[r] = clean[r] + q if r in clean else q
        self.terms = {r: q for r, q in clean.items() if q}

    @classmethod
    def from_rational(cls, q) -> "RadicalScalar":
        return cls({1: Fraction(q)})

    @classmethod
    def sqrt(cls, n: int) -> "RadicalScalar":
        """sqrt(n) for n >= 0, with the square part extracted."""
        if n < 0:
            raise ValueError("sqrt of a negative integer is not supported")
        if n == 0:
            return cls()
        s, r = squarefree_split(n)
        return cls({r: Fraction(s)})

    # -- predicates -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return all(r == 1 for r in self.terms)

    @property
    def rational_part(self) -> Fraction:
        return self.terms.get(1, Fraction(0))

    def as_fraction(self) -> Fraction:
        """The value as an exact rational; error if a root survives."""
        if not self.is_rational:
            bad = sorted(r for r in self.terms if r != 1)
            raise ValueError("not rational; surviving radicands %s" % bad)
        return self.rational_part

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for r, q in other.terms.items():
            out[r] = out[r] + q if r in out else q
        return RadicalScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return RadicalScalar({r: -q for r, q in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RadicalScalar({r: q * other for r, q in self.terms.items()})
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        out = {}
        for r1, q1 in self.terms.items():
            for r2, q2 in other.terms.items():
                s, r = squarefree_split(r1 * r2)
                q = q1 * q2 * s
                out[r] = out[r] + q if r in out else q
        return RadicalScalar(out)

    __rmul__ = __mul__

    # -- comparisons and display ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar.from_rational(other)
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for r in sorted(self.terms):
            q = self.terms[r]
            if r == 1:
                parts.append(str(q))
            elif q == 1:
                parts.append("sqrt(%d)" % r)
            else:
                parts.append("%s*sqrt(%d)" % (q, r))
        return " + ".join(parts)


def _coerce(value):
    if isinstance(value, RadicalScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return RadicalScalar.from_rational(value)
    return NotImplemented
