"""Exact field arithmetic: rational functions, quantum numbers, substitution."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsaffine.errors import (
    DivisionByZero,
    LatticeOverflow,
    SpecializationPole,
)
from rsaffine.field import (
    A,
    ONE,
    R,
    S,
    ZERO,
    LaurentMono,
    RatFunc,
    gauss_binom,
    parse,
    quantum_factorial,
    quantum_int,
    render,
    rf,
)


def test_self_division_is_one():
    assert (R - S) / (R - S) == ONE


def test_difference_of_squares_divides():
    assert (R**2 - S**2) / (R - S) == R + S


def test_pairing_row_product_is_one():
    # product of the two off-diagonal entries of the rank-1 pairing table
    assert (R * S**-1) * (R**-1 * S) == ONE


def test_zero_division_raises():
    with pytest.raises(DivisionByZero):
        ONE / ZERO


def _leading_coeff(p):
    return p[max(p, key=lambda k: (sum(k), *k))]


def assert_canonical(x):
    """Integer coefficients, combined content 1, denominator with minimal
    exponent 0 in every variable and a positive graded-lex leading
    coefficient."""
    coeffs = [*x.num.values(), *x.den.values()]
    assert all(type(c) is int for c in coeffs)
    assert gcd(*coeffs) == 1
    assert all(min(k[ax] for k in x.den) == 0 for ax in range(4))
    assert _leading_coeff(x.den) > 0


def test_canonical_form_der_monic_and_reduced():
    x = (R**2 - S**2) / ((R - S) * (R + S))
    assert x == ONE
    y = rf(2) / (2 * R - 2 * S)
    # the common factor 2 cancels, leaving a monic denominator
    assert _leading_coeff(y.den) == 1
    assert y * (R - S) == ONE
    # a rational scale lives in the integer coefficients of both parts
    half = rf(1) / 2
    assert (half.num, half.den) == ({(0, 0, 0, 0): 1}, {(0, 0, 0, 0): 2})
    z = (3 * R) / (-4 * S**2 + 6 * R * S)
    assert (z.num, z.den) == ({(6, -6, 0, 0): 3}, {(6, 0, 0, 0): 6, (0, 6, 0, 0): -4})
    for v in (x, y, half, z, -z, z * half, z + half, ZERO, ONE):
        assert_canonical(v)
    assert render(z) == "(1/2*r*s^(-1))/(r - 2/3*s)"


def test_fraction_edges_round_trip():
    x = RatFunc.monomial(Fraction(-3, 2), Fraction(1, 2), 0, 1) + rf(1) / 3
    assert [m.coeff for m in x.monomials()] == [Fraction(-3, 2), Fraction(1, 3)]
    assert RatFunc.from_monomials(x.monomials()) == x
    assert RatFunc.from_monomials([]) == ZERO
    assert (rf(5) / -6).as_fraction() == Fraction(-5, 6)
    assert RatFunc.from_fraction(Fraction(-5, 6)) == rf(5) / -6


def test_monomial_constructor_lattice():
    half = RatFunc.monomial(1, Fraction(1, 2), Fraction(-1, 2), 0)
    assert half * half == R * S**-1
    with pytest.raises(LatticeOverflow):
        LaurentMono(Fraction(1), Fraction(1, 4), Fraction(0), 0)


def test_zero_monomial_normalizes_exponents():
    m = LaurentMono(Fraction(0), Fraction(1, 2), Fraction(3), 5)
    assert m.exp_r == 0 and m.exp_s == 0 and m.exp_a == 0
    assert m.as_ratfunc() == ZERO


def test_quantum_int_small():
    assert quantum_int(0) == ZERO
    assert quantum_int(1) == ONE
    assert quantum_int(2) == R + S
    assert quantum_int(3, base=(S, R)) == S**2 + S * R + R**2


def test_quantum_int_defining_ratio():
    for n in range(13):
        assert quantum_int(n) * (R - S) == R**n - S**n


def test_gauss_binom_values():
    assert gauss_binom(2, 1) == R + S
    assert gauss_binom(3, 3) == ONE
    assert gauss_binom(5, 0) == ONE
    assert gauss_binom(3, 1) == quantum_int(3)


def test_gauss_binom_factorial_identity():
    for m in range(9):
        for k in range(m + 1):
            lhs = gauss_binom(m, k) * quantum_factorial(k) * quantum_factorial(m - k)
            assert lhs == quantum_factorial(m)


def test_gauss_binom_swapped_base():
    b = (S, R)
    assert gauss_binom(3, 1, base=b) == quantum_int(3, base=b)
    assert gauss_binom(4, 2, base=b) == gauss_binom(4, 2)  # symmetric in r, s


def test_substitute_s_to_r_inverse():
    x = quantum_int(2)
    assert x.substitute(s=R**-1) == R + R**-1


def test_substitute_s_to_r_quantum_int():
    # [n] collapses to n r^(n-1)
    assert quantum_int(3).substitute(s=R) == 3 * R**2


def test_substitute_pole():
    x = ONE / (R - S)
    with pytest.raises(SpecializationPole):
        x.substitute(s=R)


def test_substitute_fractional_exponent_monomial_image():
    half = RatFunc.monomial(1, Fraction(1, 2))
    assert half.substitute(r=R**-1) == RatFunc.monomial(1, Fraction(-1, 2))
    with pytest.raises(LatticeOverflow):
        half.substitute(r=R + S)


def test_substitute_r_to_s_cubed():
    x = R * S**-1
    assert x.substitute(r=S**3) == S**2


def test_cross_equality_matches_canonical_equality():
    x = (R**2 - S**2) / (R - S)
    y = R + S
    assert x.cross_equal(y)
    assert x == y


small_frac = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)


@st.composite
def ratfuncs(draw, allow_zero=True):
    n_terms = draw(st.integers(min_value=0 if allow_zero else 1, max_value=3))
    out = ZERO
    for _ in range(n_terms):
        c = draw(small_frac)
        er = draw(st.integers(min_value=-2, max_value=2))
        es = draw(st.integers(min_value=-2, max_value=2))
        ea = draw(st.integers(min_value=-1, max_value=1))
        out = out + RatFunc.monomial(c, er, es, ea)
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=2))
        out = out / (R**d - S + rf(1))
    return out


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inv() == ONE
        assert (x * y) / x == y


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_substitute_is_homomorphism(x, y):
    sub = dict(s=R**-1)
    try:
        lhs = (x * y).substitute(**sub)
        rx = x.substitute(**sub)
        ry = y.substitute(**sub)
    except SpecializationPole:
        return
    assert lhs == rx * ry


@settings(max_examples=80, deadline=None)
@given(ratfuncs(), ratfuncs(allow_zero=False), ratfuncs(allow_zero=False), ratfuncs())
def test_integer_canonical_form(p, q, g, y):
    assume(q and g)  # nonzero terms may still cancel to zero
    x = p / q
    for v in (p, q, g, x, y, x + y, x * y, x - y):
        assert_canonical(v)
    # a common factor cancels to the same components, so hashes agree too
    x2 = (p * g) / (q * g)
    assert x2 == x
    assert hash(x2) == hash(x)
    assert (x + y) - y == x
    assert hash((x + y) - y) == hash(x)
    assert x.cross_equal(x2)
    assert x.cross_equal(y) == (x == y)
    assert parse(render(x)) == x


# -- rendering / parsing -----------------------------------------------------


def test_render_simple():
    assert render(ZERO) == "0"
    assert render(ONE) == "1"
    assert render(R * S**-1) == "r*s^(-1)"
    assert render(RatFunc.monomial(1, Fraction(1, 3), Fraction(-1, 3), 0)) == "r^(1/3)*s^(-1/3)"
    assert render(quantum_int(2)) == "r + s"
    assert render(ONE / (R - S)) == "(1)/(r - s)"
    assert render(-2 * A**2 + rf(3)) == "-2*a^2 + 3"


def test_parse_round_trip_specific():
    for x in [
        ZERO,
        ONE,
        -ONE,
        R + S,
        R * S**-1,
        quantum_int(5),
        (R**2 - S**2) / (R - S + A),
        RatFunc.monomial(Fraction(-3, 2), Fraction(1, 2), Fraction(-5, 3), 2),
        gauss_binom(4, 2),
    ]:
        assert parse(render(x)) == x


@settings(max_examples=80, deadline=None)
@given(ratfuncs())
def test_parse_round_trip_random(x):
    assert parse(render(x)) == x


def test_parse_bounds():
    from rsaffine.field import MAX_DIGITS, MAX_EXPONENT, MAX_TERMS

    # at the bounds: accepted, and the rendering parses back
    for text in (
        f"7^{MAX_EXPONENT}",
        f"10^{MAX_DIGITS - 1}",
        "9" * MAX_DIGITS,
        f"r^{MAX_EXPONENT}*s^(-{MAX_EXPONENT})*a^{MAX_EXPONENT}",
        f"(1+r)^{MAX_TERMS - 2}",
    ):
        x = parse(text)
        assert parse(render(x)) == x
    # past them: the parser's own error, before any large computation
    for text in (
        "(1+r)^5000",
        "7^6000",
        f"7^{MAX_EXPONENT + 1}",
        f"10^{MAX_DIGITS}",
        f"(10^{MAX_DIGITS - 1})^{MAX_EXPONENT}",
        "9" * (MAX_DIGITS + 1),
        f"r^{MAX_EXPONENT}*r",
        f"(1+r)^{MAX_TERMS - 1}",
        "(1+r+s+a+b)^64",
    ):
        with pytest.raises(ValueError, match="parse error"):
            parse(text)


def test_parse_expressions():
    assert parse("(r - s)*(r + s)") == R**2 - S**2
    assert parse("1/2*r") == R / 2
    assert parse("r^(1/2)*s^(-1/2)") ** 2 == R * S**-1
    with pytest.raises(ValueError):
        parse("r +")
    with pytest.raises(ValueError):
        parse("q")


def test_parse_exponent_is_integer_unless_parenthesized():
    # a bare exponent is an optionally signed integer; "/" after it divides
    assert parse("r^2/s") == R**2 / S
    assert parse("2^3/4") == rf(2)
    assert parse("r^-1/2") == R**-1 / 2
    assert parse("(1+r)^2/(1+s)^2") == (1 + R) ** 2 / (1 + S) ** 2
    assert parse("r^-1") == R**-1
    # a rational exponent is written in parentheses, as render prints it
    half = RatFunc.monomial(1, Fraction(1, 2), 0, 0)
    assert parse("r^(1/2)") == half
    assert parse("r^(-1/2)") == half.inv()
    assert parse("r^(3)") == R**3
    for x in (R**2 / S, half / 2, R**-1 / 2):
        assert parse(render(x)) == x
    with pytest.raises(ZeroDivisionError):
        parse("r^(1/0)")
    with pytest.raises(ValueError, match="expected '\\)' after exponent"):
        parse("r^(1/2")
