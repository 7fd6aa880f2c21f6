"""Truncated series arithmetic: inv, log, exp, exact coefficients."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsaffine.errors import BadConstantTerm, MixedSeries
from rsaffine.field import A, ONE, R, S, ZERO, rf
from rsaffine.series import DESC, TruncSeries, geometric, linear


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


def test_constant_term_preconditions():
    with pytest.raises(BadConstantTerm):
        TruncSeries(3, [ZERO, ONE]).inv()
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
