"""Truncated series arithmetic: division, inv, log, exp, exact coefficients."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsaffine.errors import BadConstantTerm, MixedSeries
from rsaffine.field import A, ONE, R, S, ZERO, rf
from rsaffine.series import ASC, DESC, TruncSeries, linear, ratio_series


def geometric(ratio, order=8, direction=ASC):
    """1/(1 - ratio*x) as a truncated series, by its coefficients."""
    coeffs = [ONE]
    for _ in range(order):
        coeffs.append(coeffs[-1] * ratio)
    return TruncSeries(order, coeffs, direction)


def test_geometric_inverse():
    one_minus_z = linear(ONE, -ONE, order=3)
    assert one_minus_z.inv() == TruncSeries(3, [ONE, ONE, ONE, ONE])


def test_log_exp_inverse_pair():
    c = R * S**-1 + rf(2)
    cz = linear(ZERO, c, order=2)
    assert cz.exp().log() == cz


def test_product_example():
    # (1 - a r^-1 z) / (1 - a s^-1 z), truncated at order 2
    left = linear(ONE, -A * R**-1, order=2)
    right = geometric(A * S**-1, order=2)
    got = left * right
    # brute-force expansion: sum_k (a/s)^k z^k times (1 - a/r z)
    c1 = A * (S**-1 - R**-1)
    c2 = A**2 * S**-1 * (S**-1 - R**-1)
    assert got == TruncSeries(2, [ONE, c1, c2])


def test_mul_truncates():
    z = TruncSeries.variable(order=2)
    assert (z * z * z).is_zero()


def test_mixed_series_rejected():
    a = TruncSeries.one(order=3)
    c = TruncSeries.one(order=3, direction=DESC)
    with pytest.raises(MixedSeries):
        a * c
    d = TruncSeries.one(order=4)
    with pytest.raises(MixedSeries):
        a - d
    with pytest.raises(MixedSeries):
        a / c


def test_constant_term_preconditions():
    with pytest.raises(BadConstantTerm):
        TruncSeries(3, [ZERO, ONE]).inv()
    with pytest.raises(BadConstantTerm):
        TruncSeries.one(order=3) / TruncSeries(3, [ZERO, ONE])
    with pytest.raises(BadConstantTerm):
        TruncSeries(3, [rf(2)]).log()
    with pytest.raises(BadConstantTerm):
        TruncSeries(3, [ONE]).exp()


def test_inv_roundtrip_with_denominators():
    f = TruncSeries(5, [ONE, R, S * A, ONE / (R - S)])
    assert f * f.inv() == TruncSeries.one(order=5)


def test_descending_direction_algebra():
    # same recurrences, coefficients indexed by |power|
    f = geometric(R, order=4, direction=DESC)
    g = linear(ONE, -R, order=4, direction=DESC)
    assert f * g == TruncSeries.one(order=4, direction=DESC)


coeffs_strategy = st.lists(
    st.sampled_from([ZERO, ONE, rf(2), R, S, A, R * S**-1, -S]),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(coeffs_strategy)
def test_exp_log_roundtrip(cs):
    f = TruncSeries(8, [ZERO] + cs)
    assert f.exp().log() == f


@settings(max_examples=40, deadline=None)
@given(coeffs_strategy)
def test_log_exp_roundtrip(cs):
    f = TruncSeries(8, [ONE] + cs)
    assert f.log().exp() == f


@settings(max_examples=30, deadline=None)
@given(coeffs_strategy, coeffs_strategy)
def test_log_turns_products_into_sums(cs, ds):
    f = TruncSeries(6, [ONE] + cs)
    g = TruncSeries(6, [ONE] + ds)
    assert (f * g).log() == f.log() + g.log()


# values with real denominators, and zero, for the division recurrence
nonzero_values = [ONE, rf(2), R, -S, A * R**-1, ONE / (R - S), (ONE + R) / (S + rf(2))]
division_values = st.sampled_from([ZERO] + nonzero_values)
directions = st.sampled_from([ASC, DESC])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(division_values, min_size=1, max_size=6),
    st.sampled_from(nonzero_values),
    st.lists(division_values, max_size=5),
    directions,
)
def test_quotient_times_divisor_is_dividend(cs, b0, bs, direction):
    # `*` is the only oracle: a / b is the series q with q * b == a
    a = TruncSeries(5, cs, direction)
    b = TruncSeries(5, [b0] + bs, direction)
    assert (a / b) * b == a


@settings(max_examples=30, deadline=None)
@given(
    st.lists(division_values, min_size=5, max_size=8),
    st.sampled_from(nonzero_values),
    st.lists(division_values, min_size=4, max_size=7),
    directions,
)
def test_ratio_series_divides_the_truncations(num, d0, den, direction):
    # both polynomials are longer than the order; no coefficient past it is read
    den = [d0] + den
    want = TruncSeries(3, num[:4], direction) / TruncSeries(3, den[:4], direction)
    assert ratio_series(num, den, 3, direction) == want
