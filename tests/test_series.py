"""Truncated series: drinfeld.expand against the oracle's quotient, and the
oracle's own arithmetic (division, inv, log, exp, exact coefficients)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from truncseries import BadConstantTerm, TruncSeries

from rsaffine.drinfeld import expand
from rsaffine.errors import DivisionByZero
from rsaffine.field import A, ONE, R, S, ZERO, rf


def geometric(ratio, order=8):
    """1/(1 - ratio*x) as a truncated series, by its coefficients."""
    coeffs = [ONE]
    for _ in range(order):
        coeffs.append(coeffs[-1] * ratio)
    return TruncSeries(order, coeffs)


def test_geometric_inverse():
    one_minus_z = TruncSeries(3, [ONE, -ONE])
    assert one_minus_z.inv() == TruncSeries(3, [ONE, ONE, ONE, ONE])


def test_log_exp_inverse_pair():
    c = R * S**-1 + rf(2)
    cz = TruncSeries(2, [ZERO, c])
    assert cz.exp().log() == cz


def test_product_example():
    # (1 - a r^-1 z) / (1 - a s^-1 z), truncated at order 2
    left = TruncSeries(2, [ONE, -A * R**-1])
    right = geometric(A * S**-1, order=2)
    got = left * right
    # brute-force expansion: sum_k (a/s)^k z^k times (1 - a/r z)
    c1 = A * (S**-1 - R**-1)
    c2 = A**2 * S**-1 * (S**-1 - R**-1)
    assert got == TruncSeries(2, [ONE, c1, c2])


def test_mul_truncates():
    z = TruncSeries(2, [ZERO, ONE])
    assert z * z * z == TruncSeries(2, [])


def test_constant_term_preconditions():
    with pytest.raises(BadConstantTerm):
        TruncSeries(3, [ZERO, ONE]).inv()
    with pytest.raises(BadConstantTerm):
        TruncSeries(3, [ONE]) / TruncSeries(3, [ZERO, ONE])
    with pytest.raises(BadConstantTerm):
        TruncSeries(3, [rf(2)]).log()
    with pytest.raises(BadConstantTerm):
        TruncSeries(3, [ONE]).exp()


def test_inv_roundtrip_with_denominators():
    f = TruncSeries(5, [ONE, R, S * A, ONE / (R - S)])
    assert f * f.inv() == TruncSeries(5, [ONE])


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


@settings(max_examples=40, deadline=None)
@given(
    st.lists(division_values, min_size=1, max_size=6),
    st.sampled_from(nonzero_values),
    st.lists(division_values, max_size=5),
)
def test_quotient_times_divisor_is_dividend(cs, b0, bs):
    # `*` is the only oracle: a / b is the series q with q * b == a
    a = TruncSeries(5, cs)
    b = TruncSeries(5, [b0] + bs)
    assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(
    st.lists(division_values, min_size=1, max_size=8),
    division_values,
    st.lists(division_values, max_size=7),
    st.integers(0, 5),
    st.booleans(),
)
@example([R], rf(2), [], 3, False)
@example([ONE, R], ZERO, [ONE], 3, False)
@example([], ZERO, [], 0, False)
def test_expand_matches_the_oracle_quotient(num, d0, den, order, reverse):
    # the lists may be longer or shorter than the order: no coefficient past
    # it is read, and a short numerator reads as zero.  Reversed lists are
    # the expansion about infinity that minus_series_of takes; a zero
    # constant term has no expansion.
    den = [d0] + den
    if reverse:
        num, den = num[::-1], den[::-1]
    if den[0].is_zero():
        with pytest.raises(DivisionByZero):
            expand(num, den, order)
        return
    want = TruncSeries(order, num[: order + 1]) / TruncSeries(order, den[: order + 1])
    assert expand(num, den, order) == want.coeffs


@settings(max_examples=40, deadline=None)
@given(
    st.lists(division_values, min_size=1, max_size=6),
    st.sampled_from(nonzero_values),
    st.lists(division_values, max_size=5),
    st.sampled_from(nonzero_values + [R**3 * S**-2, ZERO]),
    st.integers(0, 5),
)
@example([R, ONE], ONE, [S], R**3 * S**-2, 4)
@example([R, ONE], rf(2), [S], ONE / (R - S), 4)
def test_expand_is_linear_in_the_numerator(num, d0, den, c, order):
    # the callers fold their scalar into num; d0 = 1 takes no division
    den = [d0] + den
    assert expand([c * x for x in num], den, order) == tuple(c * q for q in expand(num, den, order))
