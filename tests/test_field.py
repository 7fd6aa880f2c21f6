"""Exact field arithmetic: rational functions, quantum numbers, substitution."""

from fractions import Fraction
from math import gcd

import pytest
import termsubst
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rsaffine._kernel import padd, pmul, psub
from rsaffine.errors import (
    DivisionByZero,
    LatticeOverflow,
    ParseError,
    SpecializationPole,
)
from rsaffine.field import (
    A,
    B,
    ONE,
    P61,
    R,
    S,
    ZERO,
    RatFunc,
    _moves,
    _relabel,
    _univ_collapse,
    _univ_view,
    eval_mod,
    gauss_binom,
    monomial_quotient,
    parse,
    pgcd,
    quantum_int,
    quantum_int_sum,
    render,
    rf,
    substitution,
)


def quantum_factorial(n):
    out = ONE
    for j in range(1, n + 1):
        out = out * quantum_int(j)
    return out


def test_monomial_quotient_is_read_off_the_leading_terms():
    y = quantum_int(3)
    m = RatFunc.monomial(Fraction(-2, 3), 1, -2, 1)
    assert monomial_quotient(y * m, y) == m
    assert monomial_quotient(y * (1 + R), y) is None  # not a monomial
    assert monomial_quotient(y * m + 1, y) is None  # not a multiple of y
    assert monomial_quotient(ONE / (R - S), ONE) is None  # not Laurent
    assert monomial_quotient(ZERO, y) is None


def test_laurent_division_is_one_exact_division(monkeypatch):
    import rsaffine.field as field

    y = R - S
    exact = [
        (R**5 * S**-2 - R**-2 * S**5, y),  # rho-like, with monomials to shift out
        (quantum_int(4) * (2 + A * B**-1) * Fraction(3, 7), (2 + A * B**-1) * Fraction(1, 5)),
    ]
    inexact = [
        (R**3 - S**3, 2 * R - 2 * S),  # quotient not over the integers
        (R + 1, y),  # not a multiple
        (ONE / (1 + R), ONE + R),  # not Laurent
        (R - 1, ONE / (1 + R)),
    ]
    monkeypatch.setattr(field, "pgcd", None)  # any gcd would raise
    got = [x / d for x, d in exact]
    monkeypatch.undo()
    assert got[0] == R**-2 * S**-2 * quantum_int(7)
    assert got[1] == quantum_int(4) * Fraction(15, 7)
    # the gcd path divides the rest, to the same canonical values
    assert [x / d * d for x, d in inexact] == [x for x, _ in inexact]
    assert (R**3 - S**3) / (2 * R - 2 * S) == Fraction(1, 2) * quantum_int(3)
    assert ZERO / y == ZERO


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


# ZERO has no terms, so a monomial shortcut that took it in would recurse
# through inv() and the negative power, or divide by zero in Python; every
# path to its inverse raises DivisionByZero instead.
@pytest.mark.parametrize(
    "op", (ZERO.inv, lambda: ZERO**-1, lambda: ZERO**-3, lambda: R / ZERO, lambda: ZERO / ZERO, lambda: 1 / ZERO)
)
def test_zero_has_no_inverse(op):
    with pytest.raises(DivisionByZero):
        op()


_MONOMIALS = (
    RatFunc.monomial(-1, 1),
    RatFunc.monomial(Fraction(-2, 3), Fraction(1, 2), Fraction(-1, 3), 1, -2),
    RatFunc.monomial(Fraction(5, 7), Fraction(-5, 6), 0, 0, 3),
    RatFunc.monomial(-4),
    RatFunc.monomial(Fraction(1, 6), 0, Fraction(2, 3)),
)


# The closed monomial power, at negative exponents too, against the generic
# path: repeated products of the value or of its inverse, reduced in one shot
# by _normalize.  inv() and a quotient by a monomial go through that power.
@pytest.mark.parametrize("x", _MONOMIALS, ids=render)
def test_monomial_powers_match_the_generic_path(x):
    inverse = RatFunc._normalize(dict(x.den), dict(x.num))
    assert x.inv() == inverse
    assert_canonical(x.inv())
    assert x * x.inv() == ONE
    for n in range(-6, 7):
        want = ONE
        for _ in range(abs(n)):
            want = want * (x if n > 0 else inverse)
        assert x**n == want
        assert_canonical(x**n)
    for y in (ONE, R - S, (1 + R) / (2 + S), RatFunc.monomial(Fraction(3, 2), 1, -1)):
        assert y / x == y * inverse
        assert_canonical(y / x)


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
    x = RatFunc.monomial(Fraction(-3, 2), Fraction(1, 2), 0, 1)
    assert (x.num, x.den) == ({(3, 0, 1, 0): -3}, {(0, 0, 0, 0): 2})
    assert x == parse("-3/2*r^(1/2)*a")
    assert (rf(5) / -6).as_fraction() == Fraction(-5, 6)
    assert RatFunc.from_fraction(Fraction(-5, 6)) == rf(5) / -6


def test_monomial_constructor_lattice():
    half = RatFunc.monomial(1, Fraction(1, 2), Fraction(-1, 2), 0)
    assert half * half == R * S**-1
    with pytest.raises(LatticeOverflow):
        RatFunc.monomial(1, Fraction(1, 4), 0, 0)


@pytest.mark.parametrize("exp_a", [Fraction(1, 2), Fraction(-7, 3)])
def test_monomial_rejects_fractional_parameter_exponent(exp_a):
    # a and b take integer exponents only, as parse("a^(1/2)") already enforces
    with pytest.raises(LatticeOverflow):
        RatFunc.monomial(1, 0, 0, exp_a)
    with pytest.raises(LatticeOverflow):
        RatFunc.monomial(1, 0, 0, 0, exp_a)
    assert RatFunc.monomial(1, 0, 0, Fraction(4, 2)) == A**2


def test_monomial_rejects_float_exponent():
    with pytest.raises(TypeError):
        RatFunc.monomial(1, 0, 0, 2.7)
    with pytest.raises(TypeError):
        RatFunc.monomial(1, 0.5)


def test_zero_monomial_normalizes_exponents():
    m = RatFunc.monomial(Fraction(0), Fraction(1, 2), Fraction(3), 5)
    assert m == ZERO and m.is_zero()
    assert (m.num, m.den) == (ZERO.num, ZERO.den)


def test_quantum_int_small():
    assert quantum_int(0) == ZERO
    assert quantum_int(1) == ONE
    assert quantum_int(2) == R + S
    assert quantum_int(3, base=(S, R)) == S**2 + S * R + R**2


def test_quantum_int_defining_ratio():
    for n in range(13):
        assert quantum_int(n) * (R - S) == R**n - S**n


def test_quantum_int_is_the_summed_definition():
    # the default base reads the terms off their exponents; an explicit base
    # keeps the sum of products, which is the definition
    for n in range(41):
        want = ZERO
        for j in range(n):
            want = want + R ** (n - 1 - j) * S**j
        got = quantum_int(n)
        assert got == want == quantum_int(n, base=(R, S))
        assert (got.num, got.den) == (want.num, want.den)
    for base in (None, (R, S)):
        with pytest.raises(ValueError, match="n >= 0"):
            quantum_int(-1, base)


def test_quantum_int_sum_is_the_arithmetic_sum():
    # terms read off their exponents, in the canonical form the arithmetic
    # gives: merged and cancelled terms, and the content shared with den
    # divided out
    x, y = A * R**-3 * S, B**2 * S ** Fraction(-1, 2)
    cases = [
        ([(1, (x, R**2), 5), (-1, (x, S**2), 3)], 4),
        ([(2, (x,), 3), (-4, (y, A), 2)], 6),
        ([(1, (x,), 3), (-1, (x,), 3)], 5),
        ([(3, (), 2), (1, (y,), 0)], 9),
        ([], 1),
    ]
    for parts, den in cases:
        want = ZERO
        for c, xs, k in parts:
            term = c * quantum_int(k)
            for z in xs:
                term = term * z
            want = want + term
        want = want / den
        got = quantum_int_sum(parts, den)
        assert (got.num, got.den) == (want.num, want.den)
    for parts, den in (([(1, (R + S,), 2)], 1), ([(1, (2 * R,), 2)], 1), ([(1, (R,), 2)], 0)):
        with pytest.raises(ValueError):
            quantum_int_sum(parts, den)


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


def test_substitute_coerces_images():
    half = RatFunc.monomial(1, Fraction(1, 2))
    x = R**2 * S - A * B**-1
    # int, Fraction and RatFunc images are the same map
    for img in (3, Fraction(1, 2), RatFunc._coerce(3), R**-1):
        assert x.substitute(r=img, b=img) == x.substitute(r=RatFunc._coerce(img), b=RatFunc._coerce(img))
    assert x.substitute(r=3) == 9 * S - A * B**-1
    assert x.substitute(b=Fraction(1, 2)) == R**2 * S - 2 * A
    # an int image meets a fractional exponent as the RatFunc constant does
    with pytest.raises(LatticeOverflow) as coerced:
        half.substitute(r=RatFunc._coerce(2))
    with pytest.raises(LatticeOverflow) as plain:
        half.substitute(r=2)
    assert str(plain.value) == str(coerced.value)
    with pytest.raises(TypeError, match="image of r"):
        half.substitute(r=2.0)
    with pytest.raises(TypeError, match="image of b"):
        x.substitute(b=0.5)


def test_fraction_exponent_is_a_lattice_power():
    x = (1 + R) / (2 - S)
    assert R ** Fraction(1, 2) == RatFunc.monomial(1, Fraction(1, 2))
    assert (R**-1 * S) ** Fraction(-1, 3) == RatFunc.monomial(1, Fraction(1, 3), Fraction(-1, 3))
    assert x ** Fraction(3) == x**3
    assert x ** Fraction(-2) == x**-2
    with pytest.raises(LatticeOverflow, match="non-monomial"):
        (1 + R) ** Fraction(1, 2)
    with pytest.raises(LatticeOverflow, match="coefficient"):
        (2 * R) ** Fraction(1, 2)
    with pytest.raises(LatticeOverflow, match="lattice"):
        RatFunc.monomial(1, Fraction(1, 6)) ** Fraction(1, 2)
    assert parse("r^(1/2)") == R ** Fraction(1, 2)


def test_substitute_r_to_s_cubed():
    x = R * S**-1
    assert x.substitute(r=S**3) == S**2


def cross_equal(x, y):
    """Equality by cross-multiplication, independent of the canonical form."""
    return pmul(x.num, y.den) == pmul(y.num, x.den)


def test_cross_equality_matches_canonical_equality():
    x = (R**2 - S**2) / (R - S)
    y = R + S
    assert cross_equal(x, y)
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


# A constant equals the int or Fraction it reads as, so it must hash as one:
# 1 in {ONE} and ONE in {1} are True.
@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(-10**30, 10**30), st.fractions()))
def test_constants_hash_as_the_numbers_they_equal(c):
    x = RatFunc.from_fraction(c)
    assert x == c and hash(x) == hash(c)
    assert c in {x} and x in {c}


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
    assert cross_equal(x, x2)
    assert cross_equal(x, y) == (x == y)
    assert parse(render(x)) == x


# -- gcd-splitting arithmetic against the one-shot reduction -------------------

# irreducible factors, shared between operands so that results cancel
_FACTORS = tuple(f.num for f in (1 + R, R - S, 2 + S, 1 + R * S, A - 1, 1 + B))
_UNIT_KEY = (0, 0, 0, 0)


def _one_shot(num, den):
    """The reference: the whole quotient reduced by its full gcd."""
    return RatFunc._normalize(num, den)


def _pow_dict(p, k):
    out = {_UNIT_KEY: 1}
    for _ in range(k):
        out = pmul(out, p)
    return out


@st.composite
def planted_triples(draw):
    """x = (f g)/(h k), y = (h m)/(f n) and t = m/(h n) over products of
    _FACTORS, each part times a Laurent monomial with an integer
    coefficient (a content)."""

    def product(min_size):
        out = {_UNIT_KEY: 1}
        for i in draw(st.lists(st.integers(0, len(_FACTORS) - 1), min_size=min_size, max_size=2)):
            out = pmul(out, _FACTORS[i])
        return out

    def scaled(p):
        c = draw(st.integers(-6, 6).filter(bool))
        key = (
            draw(st.integers(-12, 12)),
            draw(st.integers(-12, 12)),
            draw(st.integers(-1, 1)),
            draw(st.integers(-1, 1)),
        )
        return pmul(p, {key: c})

    f, h = product(1), product(1)
    g, k, m, n = (product(0) for _ in range(4))
    x = _one_shot(scaled(pmul(f, g)), scaled(pmul(h, k)))
    y = _one_shot(scaled(pmul(h, m)), scaled(pmul(f, n)))
    t = _one_shot(scaled(m), scaled(pmul(h, n)))
    return x, y, t


_points = st.tuples(*[st.integers(2, P61 - 1)] * 4)


@settings(max_examples=200, deadline=None)
@given(planted_triples(), st.integers(-3, 4), st.lists(_points, min_size=2, max_size=2))
def test_split_arithmetic_matches_one_shot(triple, k, points):
    x, y, t = triple
    if k >= 0:
        want_pow = _one_shot(_pow_dict(x.num, k), _pow_dict(x.den, k))
    else:
        want_pow = _one_shot(_pow_dict(x.den, -k), _pow_dict(x.num, -k))
    cases = {
        "x*y": (x * y, _one_shot(pmul(x.num, y.num), pmul(x.den, y.den))),
        "x/y": (x / y, _one_shot(pmul(x.num, y.den), pmul(x.den, y.num))),
        "x+y": (x + y, _one_shot(padd(pmul(x.num, y.den), pmul(y.num, x.den)), pmul(x.den, y.den))),
        "x-y": (x - y, _one_shot(psub(pmul(x.num, y.den), pmul(y.num, x.den)), pmul(x.den, y.den))),
        "x**k": (x**k, want_pow),
    }
    # z = t - x usually has a larger denominator than t, so the sum x + z
    # must cancel a common factor of the two denominators
    z = _one_shot(psub(pmul(t.num, x.den), pmul(x.num, t.den)), pmul(t.den, x.den))
    cases["x+z"] = (x + z, t)
    for name, (got, want) in cases.items():
        assert (got.num, got.den) == (want.num, want.den), name
        assert_canonical(got)
    # independently of any gcd: the values mod a prime at random points
    for point in points:
        ex, ey = eval_mod(x, point), eval_mod(y, point)
        if ex is None or ey is None or ey == 0 or (ex == 0 and k < 0):
            continue
        images = {
            "x*y": ex * ey,
            "x/y": ex * pow(ey, -1, P61),
            "x+y": ex + ey,
            "x-y": ex - ey,
            "x**k": pow(ex, k, P61),
        }
        for name, want in images.items():
            assert eval_mod(cases[name][0], point) == want % P61, name


def test_split_arithmetic_examples():
    x = (2 + 2 * R) / (3 + 3 * S)
    assert (x.num, x.den) == ({(6, 0, 0, 0): 2, _UNIT_KEY: 2}, {(0, 6, 0, 0): 3, _UNIT_KEY: 3})
    y = (1 + S) * (R - S) / ((1 + R) * (2 + S))
    assert x * y == 2 * (R - S) / (3 * (2 + S))
    assert x / y == 2 * (1 + R) ** 2 * (2 + S) / (3 * (1 + S) ** 2 * (R - S))
    assert x + (1 - R) / (1 + S) == (5 - R) / (3 + 3 * S)
    assert (1 + R) / (2 + S) - ONE / (2 + S) == R / (2 + S)
    assert x**3 == 8 * (1 + R) ** 3 / (27 * (1 + S) ** 3)
    assert x**-2 == 9 * (1 + S) ** 2 / (4 * (1 + R) ** 2)


# -- products of Laurent values -------------------------------------------------


@st.composite
def laurent_values(draw):
    """A nonzero Laurent value: an integer polynomial with a content and
    negative exponents in every variable (r, s in sixths), over a positive
    integer.  The integer is 1 most often, so products of two unit
    denominators and products with a denominator such as 2 are both drawn."""
    content = draw(st.integers(-6, 6).filter(bool))
    key = st.tuples(st.integers(-12, 12), st.integers(-12, 12), st.integers(-3, 3), st.integers(-3, 3))
    terms = draw(st.dictionaries(key, st.integers(-9, 9).filter(bool), min_size=1, max_size=4))
    den = draw(st.sampled_from((1, 1, 1, 2, 3, 6)))
    return _one_shot({k: content * c for k, c in terms.items()}, {_UNIT_KEY: den})


@settings(max_examples=200, deadline=None)
@given(x=laurent_values(), y=laurent_values(), point=_points)
@example(x=1 + R, y=(1 - S * A**-1) * B**-2, point=(2, 3, 5, 7))
@example(x=rf(1) / 2, y=2 * R * S**-1, point=(2, 3, 5, 7))
@example(x=(1 + R) / 6, y=-4 * (1 + S), point=(2, 3, 5, 7))
def test_laurent_product_matches_one_shot(x, y, point):
    got = x * y
    want = _one_shot(pmul(x.num, y.num), pmul(x.den, y.den))
    assert (got.num, got.den) == (want.num, want.den)
    assert_canonical(got)
    # integer denominators never vanish mod P61
    assert eval_mod(got, point) == eval_mod(x, point) * eval_mod(y, point) % P61


def test_unit_denominator_product_skips_the_canonical_form(monkeypatch):
    x, y = 2 * R**-1 + S * A, 3 - B**-2
    want = 6 * R**-1 - 2 * R**-1 * B**-2 + 3 * S * A - S * A * B**-2
    half, two_r = rf(1) / 2, 2 * R
    calls = 0
    canonical = RatFunc._canonical.__func__

    def counting(cls, num, den):
        nonlocal calls
        calls += 1
        return canonical(cls, num, den)

    monkeypatch.setattr(RatFunc, "_canonical", classmethod(counting))
    assert x * y == want
    assert calls == 0
    # a denominator other than 1 still takes the canonicalizing tail
    assert half * two_r == R
    assert calls == 1


# -- differences against the sum with the negation ------------------------------


@settings(max_examples=150, deadline=None)
@given(planted_triples(), laurent_values(), laurent_values())
@example(triple=(1 + R, 1 + R, ONE), u=2 * R - S, v=2 * R - S)
@example(triple=(ONE / (1 + R), R / (1 + R), ONE), u=rf(1) / 2, v=rf(1) / 2)
def test_difference_is_the_sum_with_the_negation(triple, u, v):
    # planted values have non-unit denominators, Laurent ones mostly den 1;
    # a difference of two den-1 values skips the canonicalizing tail, and
    # an equal pair cancels to ZERO either way
    x, y, t = triple
    for a, b in ((x, y), (y, t), (x, u), (u, v), (v, u), (u, u), (x, x)):
        got, want = a - b, a + (-b)
        assert (got.num, got.den) == (want.num, want.den)
        if got:
            assert_canonical(got)
        else:
            assert got is ZERO


def test_unit_denominator_difference_skips_the_canonical_form(monkeypatch):
    x, y = 2 * R**-1 + S * A, 2 * R**-1 - B**-2
    want, half, three_halves = S * A + B**-2, rf(1) / 2, rf(3) / 2
    calls = 0
    canonical = RatFunc._canonical.__func__

    def counting(cls, num, den):
        nonlocal calls
        calls += 1
        return canonical(cls, num, den)

    monkeypatch.setattr(RatFunc, "_canonical", classmethod(counting))
    assert x - y == want
    assert x - x is ZERO
    assert calls == 0
    # a denominator other than 1 still takes the canonicalizing tail
    assert three_halves - half == ONE
    assert calls == 1


# -- pgcd against a planted gcd -------------------------------------------------

_factor_sets = st.frozensets(st.integers(0, len(_FACTORS) - 1), max_size=3)
# an integer coefficient (a content) and a Laurent monomial (r, s in sixths)
_monomials = st.tuples(
    st.integers(-6, 6).filter(bool),
    st.tuples(st.integers(-12, 12), st.integers(-12, 12), st.integers(-2, 2), st.integers(-2, 2)),
)


def _planted(factors, monomial):
    c, key = monomial
    out = {key: c}
    for i in sorted(factors):
        out = pmul(out, _FACTORS[i])
    return out


@settings(max_examples=200, deadline=None)
@given(_factor_sets, _factor_sets, _factor_sets, _monomials, _monomials, _monomials)
# coprime g and h that both involve r and s, so the gcd is decided by the
# pseudo-remainder sequence
@example(frozenset({4}), frozenset({0, 2}), frozenset({1, 3}), (1, (0,) * 4), (1, (0,) * 4), (1, (0,) * 4))
@example(frozenset({0, 5}), frozenset({1, 4}), frozenset({2, 3}), (3, (1, -2, 0, 1)), (-2, (0,) * 4), (4, (6, 0, -1, 0)))
def test_pgcd_recovers_the_planted_factor(fs, gs, hs, fm, gm, hm):
    # products of distinct irreducible factors: gcd(f g, f h) = f whenever
    # g and h share none, in the canonical form pgcd returns (integer
    # primitive, positive leading coefficient, the common monomial)
    assume(not gs & hs)
    f, g, h = _planted(fs, fm), _planted(gs, gm), _planted(hs, hm)
    mono = tuple(e + min(u, v) for e, u, v in zip(fm[1], gm[1], hm[1]))
    assert pgcd(pmul(f, g), pmul(f, h)) == _planted(fs, (1, mono))


# -- substitution against the term-by-term oracle ------------------------------

_sixths = st.integers(-12, 12).map(lambda e: Fraction(e, 6))
# a coefficient other than 1 refuses a fractional power
_monomial_images = st.builds(
    RatFunc.monomial,
    st.sampled_from((1, 1, 1, -1, 2, Fraction(1, 3))),
    _sixths,
    _sixths,
    st.integers(-2, 2),
    st.integers(-2, 2),
)
# zero, constants, the other variables (a <-> b and the poles of the planted
# factors) and rational images with real denominators
_images = st.one_of(
    st.none(),
    _monomial_images,
    st.sampled_from(
        (ZERO, 1, -1, 3, Fraction(-1, 2), R, S, A, B, 1 + R, (1 + R) / (2 + S), A / (R - S), (2 + B) / (1 + A * S))
    ),
)
_substituted_values = st.one_of(laurent_values(), planted_triples().map(lambda t: t[0]), ratfuncs())


def _outcome(substitute):
    try:
        x = substitute()
    except (DivisionByZero, LatticeOverflow, SpecializationPole) as exc:
        return type(exc), str(exc)
    assert_canonical(x)
    return x.num, x.den


@settings(max_examples=200, deadline=None)
@given(_substituted_values, _images, _images, _images, _images)
@example(x=(1 + A) * (2 + B) ** -1 * R, r=None, s=None, a=B, b=A)
@example(x=(1 + R * A) / (2 - S * B), r=None, s=None, a=None, b=None)
@example(x=R ** Fraction(1, 2) * (3 + A) / (1 + S), r=R**3, s=(1 + R) / (2 + S), a=A / (R - S), b=-1)
@example(x=A**-1 + R, r=None, s=None, a=ZERO, b=None)
@example(x=R ** Fraction(1, 3) + 1, r=2 * R, s=None, a=None, b=None)
@example(x=ONE / (R - S), r=None, s=R, a=None, b=None)
def test_substitute_matches_term_by_term(x, r, s, a, b):
    got = _outcome(lambda: x.substitute(r=r, s=s, a=a, b=b))
    assert got == _outcome(lambda: termsubst.substitute(x, r=r, s=s, a=a, b=b))


# One compiled map applied to several values shares its table of image
# powers across them; each image, or the error it raises, is still the
# oracle's for that value alone.
@settings(max_examples=100, deadline=None)
@given(st.lists(_substituted_values, min_size=2, max_size=4), _images, _images, _images, _images)
@example(xs=[A**-1 + R, (1 + A) / (2 + R), A**2], r=None, s=None, a=ZERO, b=None)
@example(xs=[R ** Fraction(1, 2) + A, (1 + R) ** 2, R**-1], r=1 + R, s=None, a=2 * B, b=None)
def test_one_map_serves_many_values(xs, r, s, a, b):
    sub = substitution(r=r, s=s, a=a, b=b)
    for x in xs:
        assert _outcome(lambda: sub(x)) == _outcome(lambda: termsubst.substitute(x, r=r, s=s, a=a, b=b))


@pytest.mark.parametrize(
    "x, images, error",
    (
        (A**-1 + R, dict(a=ZERO), DivisionByZero),
        (R ** Fraction(1, 2) + S, dict(r=1 + R), LatticeOverflow),
        (R ** Fraction(1, 3), dict(r=2 * R), LatticeOverflow),
        (ONE / (R - S), dict(s=R), SpecializationPole),
    ),
)
def test_substitution_errors_match_term_by_term(x, images, error):
    with pytest.raises(error) as got:
        x.substitute(**images)
    with pytest.raises(error) as want:
        termsubst.substitute(x, **images)
    assert str(got.value) == str(want.value)


# Coefficient-1 monomials, whose substitution maps the exponent keys and adds
# the coefficients of equal keys (field._relabel): sixth-lattice and negative
# exponents, the maps of tensor (a -> b) and specialize (s -> r, s -> r^-1,
# r -> s^k), and an a <-> b swap.
_unit_monomials = st.builds(RatFunc.monomial, st.just(1), _sixths, _sixths, st.integers(-3, 3), st.integers(-3, 3))
_unit_images = st.one_of(st.none(), _unit_monomials, st.sampled_from((R, S, A, B, R**-1, S**-2, S**3)))


@settings(max_examples=200, deadline=None)
@given(_substituted_values, _unit_images, _unit_images, _unit_images, _unit_images)
@example(x=(1 + A) * (2 + S * A**-2) / (R - S), r=None, s=None, a=B, b=None)
@example(x=(R**2 + S) / (1 + R * S**-3), r=None, s=R, a=None, b=None)
@example(x=(R**2 + S) / (1 + R * S**-3), r=None, s=R**-1, a=None, b=None)
@example(x=(R**2 + S) / (1 + R * S**-3), r=S**-4, s=None, a=None, b=None)
@example(x=(1 + A) * (2 + B) ** -1 * R, r=None, s=None, a=B, b=A)
@example(x=R ** Fraction(1, 2) * S ** Fraction(-5, 6), r=R ** Fraction(2, 3), s=S ** Fraction(-1, 2), a=None, b=None)
@example(x=R ** Fraction(1, 6) + A, r=R ** Fraction(1, 3), s=None, a=None, b=None)
@example(x=ONE / (R - S), r=None, s=R, a=None, b=None)
def test_monomial_images_relabel_the_keys(x, r, s, a, b):
    images = [r, s, a, b]
    got = _outcome(lambda: x.substitute(r=r, s=s, a=a, b=b))
    assert got == _outcome(lambda: termsubst.substitute(x, r=r, s=s, a=a, b=b))
    # the keys are relabelled unless one leaves the lattice, where the
    # general path raises the oracle's LatticeOverflow
    moves = _moves(images)
    missed = _relabel(x.num, moves) is None or _relabel(x.den, moves) is None
    assert missed == (got[0] is LatticeOverflow)


def test_monomial_images_keep_the_errors_and_the_general_path():
    x = R ** Fraction(1, 6) + S
    with pytest.raises(LatticeOverflow) as got:
        x.substitute(r=R ** Fraction(1, 3))
    with pytest.raises(LatticeOverflow) as want:
        termsubst.substitute(x, r=R ** Fraction(1, 3))
    assert str(got.value) == str(want.value)
    # a coefficient other than 1 takes the general path
    y = (1 + A**2) / (R - S * A)
    assert _moves([None, None, 2 * B, None]) is None
    assert y.substitute(a=2 * B) == termsubst.substitute(y, a=2 * B) == (1 + 4 * B**2) / (R - 2 * S * B)
    assert _relabel((1 + A**2).num, _moves([None, None, B, None])) == 1 + B**2


@settings(max_examples=100, deadline=None)
@given(laurent_values(), st.integers(0, 3))
def test_univariate_view_collapses_back(x, ax):
    view = _univ_view(x.num, ax)
    assert all(k[ax] == 0 and c for sub in view.values() for k, c in sub.items())
    assert _univ_collapse(view, ax) == x.num


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


def _nested_r(depth):
    """r under depth levels of parentheses, of unary minus, and of the two
    alternating."""
    half = depth // 2
    return ("(" * depth + "r" + ")" * depth, "-" * depth + "r", "-(" * half + "-" * (depth % 2) + "r" + ")" * half)


# Parentheses and unary minus together nest at most MAX_NESTING deep; deeper
# input is refused with a positioned parse error, not a RecursionError.
def test_parse_nesting_bound():
    from rsaffine.field import MAX_NESTING

    for text in _nested_r(MAX_NESTING):
        assert parse(text) == (-R if text.count("-") % 2 else R)
    for depth in (MAX_NESTING + 1, 250, 1000):
        for text in _nested_r(depth):
            with pytest.raises(ValueError, match=f"parse error at .*nesting deeper than {MAX_NESTING}"):
                parse(text)
    # binary minus, exponent signs and exponent parentheses do not nest
    half = MAX_NESTING // 2
    assert parse("-(" * half + "r^(-1) - s^-1" + ")" * half) == R**-1 - S**-1


# Digits are ASCII 0-9 only, as in cartan.parse_type and the --map parser.
@pytest.mark.parametrize("text", ("\u0663", "\u0661/\u0662", "\u00b2", "3\u00b2", "1/\u0662", "r^\u0663"))
def test_parse_refuses_non_ascii_digits(text):
    with pytest.raises(ValueError, match="parse error at"):
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
    with pytest.raises(ParseError, match="parse error at 5: division by zero"):
        parse("r^(1/0)")


@pytest.mark.parametrize(
    "text,pos",
    [("1/(r-r)", 2), ("1 / (r-r)", 4), ("r/(s-s)*2", 2), ("2/(1-1)^3", 2), ("(r-r)^-1", 0), ("0^-1", 0), ("r+ 0^-2", 3)],
)
def test_parse_zero_divisor_is_a_positioned_error(text, pos):
    # a divisor, or a base raised to a negative power, that evaluates to
    # zero is refused at its first character, as a zero literal is
    with pytest.raises(ParseError, match=f"parse error at {pos}: division by zero"):
        parse(text)
    with pytest.raises(ValueError, match="expected '\\)' after exponent"):
        parse("r^(1/2")
