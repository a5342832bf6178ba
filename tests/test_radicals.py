"""Exact arithmetic with square roots, and truncated two-sort power series."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twisted_hurwitz.radicals import RadicalScalar, squarefree_split
from twisted_hurwitz.series import TruncatedSeries


def test_squarefree_split_examples():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(4) == (2, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(360) == (6, 10)
    with pytest.raises(ValueError):
        squarefree_split(0)


@given(st.integers(min_value=1, max_value=100_000))
def test_squarefree_split_reconstructs(n):
    s, r = squarefree_split(n)
    assert s * s * r == n
    assert all(r % (p * p) for p in range(2, int(r**0.5) + 1))


def test_sqrt_normalizes_radicands():
    two = RadicalScalar.sqrt(8)  # 2 * sqrt(2)
    assert two == RadicalScalar.from_rational(2) * RadicalScalar.sqrt(2)
    assert RadicalScalar.sqrt(4) == 2
    assert RadicalScalar.sqrt(1) == 1
    assert RadicalScalar.sqrt(0) == 0
    assert not RadicalScalar.sqrt(0)


def test_products_collapse_to_rationals():
    r2, r3 = RadicalScalar.sqrt(2), RadicalScalar.sqrt(3)
    assert r2 * r2 == 2
    assert r2 * r3 == RadicalScalar.sqrt(6)
    assert r2 * RadicalScalar.sqrt(8) == 4
    assert (1 + r2) * (1 - r2) == -1


def test_rationality_detection():
    r2 = RadicalScalar.sqrt(2)
    mixed = r2 + 1
    assert not mixed.is_rational
    with pytest.raises(ValueError, match="2"):
        mixed.as_fraction()
    assert (mixed - r2).is_rational
    assert (mixed - r2).as_fraction() == 1
    assert RadicalScalar.from_rational(Fraction(3, 4)).rational_part == Fraction(3, 4)
    assert mixed.rational_part == 1


def test_mixed_arithmetic_with_builtin_numbers():
    r2 = RadicalScalar.sqrt(2)
    assert 1 + r2 == r2 + 1
    assert 2 * r2 == r2 * 2 == r2 + r2
    assert Fraction(1, 2) * r2 * 2 == r2
    assert (3 - r2) - (1 - r2) == 2
    assert -r2 + r2 == 0
    assert hash(RadicalScalar.from_rational(5)) == hash(RadicalScalar.sqrt(25))


small_scalar = st.builds(
    lambda pairs: sum(
        (RadicalScalar.sqrt(r) * Fraction(num, den) for r, num, den in pairs),
        RadicalScalar.from_rational(0),
    ),
    st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3, 5, 6]),
            st.integers(min_value=-9, max_value=9),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=3,
    ),
)


@given(small_scalar, small_scalar, small_scalar)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == 0


# -- truncated series ------------------------------------------------------------


def S(x_count, cap, degree, xexp, value=1):
    return TruncatedSeries(x_count, cap, {(degree, xexp): value})


def test_constructor_bookkeeping():
    m = S(2, 3, 1, (2, -1), Fraction(5))
    assert m.coefficient(1, (2, -1)) == 5
    assert m.coefficient(1, (2, 0)) == 0
    assert not S(2, 3, 1, (2, -1), 0)  # zero coefficients are dropped
    with pytest.raises(ValueError):
        S(2, 3, 4, (0, 0))  # over the cap
    with pytest.raises(ValueError):
        S(2, 3, -1, (0, 0))
    with pytest.raises(ValueError):
        S(2, 3, 1, (0,))
    with pytest.raises(TypeError):
        S(2, 3, 1, (0, 0), 0.5)


def test_multiplication_truncates_at_cap():
    q = S(1, 2, 1, (0,))
    prod = q * q
    assert prod.coefficient(2, (0,)) == 1
    assert not (prod * q)  # q^3 exceeds the cap, so the product is empty
    qx = S(1, 2, 1, (3,))
    assert (qx * q).coefficient(2, (3,)) == 1  # only q-degrees are capped


def test_x_exponents_may_be_negative_and_cancel():
    up = S(2, 4, 1, (1, -1))
    down = S(2, 4, 1, (-1, 1))
    prod = up * down
    assert prod.terms == {(2, (0, 0)): 1}
    assert prod.coefficient(2, (0, 0)) == RadicalScalar.from_rational(1)


def test_multiplication_requires_matching_shape():
    with pytest.raises(ValueError):
        TruncatedSeries.constant(1, 2, 1) * TruncatedSeries.constant(1, 3, 1)
    with pytest.raises(ValueError):
        TruncatedSeries.constant(1, 2, 1) * TruncatedSeries.constant(2, 2, 1)


def test_products_landing_on_one_term_accumulate():
    # (x + 2/x)(x + 2/x) = x^2 + 4 + 4/x^2, and (x - 1/x)(x + 1/x) has no x^0 term
    s = TruncatedSeries(1, 3, {(1, (1,)): Fraction(1), (1, (-1,)): Fraction(2)})
    assert (s * s).terms == {(2, (2,)): 1, (2, (0,)): 4, (2, (-2,)): 4}
    minus = TruncatedSeries(1, 3, {(0, (1,)): 1, (0, (-1,)): -1})
    plus = TruncatedSeries(1, 3, {(0, (1,)): 1, (0, (-1,)): 1})
    assert (minus * plus).terms == {(0, (2,)): 1, (0, (-2,)): -1}
