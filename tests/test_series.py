"""TruncatedSeries products against a plain oracle: the exact truncated
product, filtered at an edge's tail and head limits when the right
operand is bound."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twisted_hurwitz.series import TruncatedSeries


def _exact(a, b):
    """Every pair's product summed per key, truncated at the cap."""
    out = {}
    for (da, xa), ca in a.terms.items():
        for (db, xb), cb in b.terms.items():
            if da + db <= a.q_cap:
                key = (da + db, tuple(p + q for p, q in zip(xa, xb)))
                out[key] = out.get(key, 0) + ca * cb
    return {key: coef for key, coef in out.items() if coef}


def _within(terms, tail, head, tail_limit, head_limit):
    return {(degree, xe): coef for (degree, xe), coef in terms.items()
            if abs(xe[tail]) <= tail_limit and abs(xe[head]) <= head_limit}


coefficients = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2,
                                                          max_denominator=3))


@st.composite
def series_pairs(draw):
    """Two series over 1..3 x-variables with one cap, negative exponents,
    terms at the cap and coefficients that can cancel."""
    x_count, cap = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    keys = st.tuples(st.integers(0, cap), st.tuples(*[st.integers(-3, 3)] * x_count))

    def series():
        return TruncatedSeries(x_count, cap, draw(st.dictionaries(keys, coefficients,
                                                                  max_size=8)))
    return series(), series()


@given(series_pairs(), st.data())
def test_bound_product_is_the_filtered_exact_product(pair, data):
    a, b = pair
    exact = _exact(a, b)
    assert (a * b).terms == exact
    ends = st.integers(0, a.x_count - 1)
    tail, head = data.draw(ends), data.draw(ends)
    tail_limit, head_limit = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    view = b.bound(tail, head, tail_limit, head_limit)
    assert view.terms is b.terms and view.limits == (tail, head, tail_limit, head_limit)
    product = a * view
    assert product.limits is None
    assert product.terms == _within(exact, tail, head, tail_limit, head_limit)
    # a degree slice of a bound series stays bound
    degree = data.draw(st.integers(0, a.q_cap))
    part = view.degree_part(degree)
    assert part.limits == view.limits
    assert (a * part).terms == _within(_exact(a, b.degree_part(degree)), tail, head,
                                       tail_limit, head_limit)


def test_bound_product_drops_cancelled_and_out_of_limit_terms():
    # (x0/x1 + 1)(1 - x0/x1) at the cap: the x0/x1 pairs cancel, and
    # x0^2/x1^2 is beyond the limit 1 at either end
    a = TruncatedSeries(2, 2, {(1, (1, -1)): 1, (1, (0, 0)): 1})
    b = TruncatedSeries(2, 2, {(1, (0, 0)): 1, (1, (1, -1)): -1})
    assert (a * b).terms == {(2, (0, 0)): 1, (2, (2, -2)): -1}
    assert (a * b.bound(0, 1, 1, 1)).terms == {(2, (0, 0)): 1}


def test_bound_refuses_ends_off_the_variables_and_negative_limits():
    s = TruncatedSeries(2, 2, {(0, (1, -1)): Fraction(1, 2)})
    for args in ((2, 0, 1, 1), (0, -1, 1, 1), (0, 1, -1, 0), (0, 1, 0, -1)):
        with pytest.raises(ValueError):
            s.bound(*args)
