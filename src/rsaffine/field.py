"""Exact scalar field: rational functions in r, s, a, b.

Everything downstream (pairing tables, module matrices, series) is computed
over Q(r, s, a, b) with r- and s-exponents in the lattice (1/6)Z and
integer exponents on the two evaluation parameters.  The lattice
denominator 6 = lcm(2, 3) covers the half- and third-integer powers the
pairing tables and weight extensions need.  There is no floating point
anywhere in this module.

Substitutions are compiled once per map (substitution): the images are
coerced and a monomial relabel read once, and the general path keeps one
table of image powers for the life of the map, so a module's entries share
every power.  A Laurent value's image is its substituted numerator over
its integer denominator, with no quotient of rational functions.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _intgcd

from . import _kernel as K
from .errors import (
    DivisionByZero,
    LatticeOverflow,
    NotPolynomial,
    ParseError,
    SpecializationPole,
)

LATTICE = 6

_ZERO_KEY = (0, 0, 0, 0)


def _to_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _lattice_int(exp, what: str) -> int:
    """Scale an (1/LATTICE)-lattice exponent to an exact integer."""
    e = _to_frac(exp) * LATTICE
    if e.denominator != 1:
        raise LatticeOverflow(f"{what} exponent {exp} not in (1/{LATTICE})Z")
    return int(e)


def _bare_int(exp, what: str) -> int:
    """An exponent of a or b, which must be an exact integer."""
    e = _to_frac(exp)
    if e.denominator != 1:
        raise LatticeOverflow(f"{what} exponent {exp} is not an integer")
    return int(e)


# ---------------------------------------------------------------------------
# raw polynomial helpers (dicts: (er6, es6, ea, eb) -> int)
# ---------------------------------------------------------------------------


def _order_key(k):
    # graded lexicographic on (exp_r, exp_s, exp_a, exp_b)
    return (k[0] + k[1] + k[2] + k[3], k[0], k[1], k[2], k[3])


def _leading(p):
    return max(p, key=_order_key)


def _min_exps(p):
    it = iter(p)
    m0, m1, m2, m3 = next(it)
    for k in it:
        if k[0] < m0:
            m0 = k[0]
        if k[1] < m1:
            m1 = k[1]
        if k[2] < m2:
            m2 = k[2]
        if k[3] < m3:
            m3 = k[3]
    return (m0, m1, m2, m3)


def _int_primitive(p):
    """Divide by the content; also flip sign so the graded-lex leading
    coefficient is positive."""
    if not p:
        return {}
    c = _intgcd(*p.values())
    if p[_leading(p)] < 0:
        c = -c
    if c == 1:
        return p
    return {k: v // c for k, v in p.items()}


def _divmod_exact(p, q):
    """Exact multivariate division p / q in the integer polynomial ring.

    Returns the quotient dict, or None when q does not divide p over Z.
    When q is primitive that is the same as over Q (Gauss's lemma).  Both
    inputs must have nonnegative exponents.
    """
    if not q:
        raise DivisionByZero("polynomial division by zero")
    quot = {}
    rem = p
    lq = _leading(q)
    cq = q[lq]
    while rem:
        lr = _leading(rem)
        dk = (lr[0] - lq[0], lr[1] - lq[1], lr[2] - lq[2], lr[3] - lq[3])
        if dk[0] < 0 or dk[1] < 0 or dk[2] < 0 or dk[3] < 0:
            return None
        c, m = divmod(rem[lr], cq)
        if m:
            return None
        quot[dk] = c
        rem = K.psub(rem, K.pmul({dk: c}, q))
    return quot


def _univ_view(p, ax):
    """View p as a univariate polynomial in axis ax: {degree: coeff-dict}.
    Distinct keys of p stay distinct, so no coefficient merges or vanishes."""
    out = {}
    for k, c in p.items():
        kk = list(k)
        kk[ax] = 0
        out.setdefault(k[ax], {})[tuple(kk)] = c
    return out


def _univ_collapse(u, ax):
    out = {}
    for d, sub in u.items():
        for k, c in sub.items():
            kk = list(k)
            kk[ax] = k[ax] + d
            out[tuple(kk)] = c
    return out


def _univ_mul_coeff(u, c):
    return {d: K.pmul(sub, c) for d, sub in u.items()}


def _univ_sub(u, v):
    out = dict(u)
    for d, sub in v.items():
        w = K.psub(out.get(d, {}), sub)
        if w:
            out[d] = w
        else:
            out.pop(d, None)
    return out


def _univ_shift(u, n):
    return {d + n: sub for d, sub in u.items()}


def _prem(u, v):
    """Exact pseudo-remainder prem(u, v) = lc(v)^(deg u - deg v + 1) u mod v."""
    dv = max(v)
    lv = v[dv]
    r = u
    e = max(u) - dv + 1
    while r and max(r) >= dv:
        dr = max(r)
        lr = r[dr]
        r = _univ_sub(_univ_mul_coeff(r, lv), _univ_shift(_univ_mul_coeff(v, lr), dr - dv))
        e -= 1
    for _ in range(e):
        r = _univ_mul_coeff(r, lv)
    return r


def pgcd(p, q):
    """GCD of two Laurent dicts, integer primitive with positive leading
    coefficient.  Common monomial (possibly Laurent) factors included."""
    if not p:
        return _int_primitive(q)
    if not q:
        return _int_primitive(p)

    mp, mq = _min_exps(p), _min_exps(q)
    mono = tuple(min(a, b) for a, b in zip(mp, mq))
    p = K.pshift(p, -mp[0], -mp[1], -mp[2], -mp[3])
    q = K.pshift(q, -mq[0], -mq[1], -mq[2], -mq[3])

    g = _pgcd_shifted(_int_primitive(p), _int_primitive(q))
    return K.pshift(g, *mono)


def _exp_rescale(p, q):
    """Per-axis gcd of all occurring exponents (lattice scaling makes every
    exponent a multiple of 6 in the common all-integer case)."""
    return tuple(max(_intgcd(*col), 1) for col in zip(*p, *q))


def _key_scale(p, sc, mul):
    if sc == (1, 1, 1, 1):
        return p
    if mul:
        return {(k[0] * sc[0], k[1] * sc[1], k[2] * sc[2], k[3] * sc[3]): c for k, c in p.items()}
    return {(k[0] // sc[0], k[1] // sc[1], k[2] // sc[2], k[3] // sc[3]): c for k, c in p.items()}


def _pgcd_shifted(p, q):
    if len(p) == 1 or len(q) == 1:
        return {_ZERO_KEY: 1}

    sc = _exp_rescale(p, q)
    if sc != (1, 1, 1, 1):
        g = _pgcd_shifted(_key_scale(p, sc, False), _key_scale(q, sc, False))
        return _key_scale(g, sc, True)

    dp = [max(col) for col in zip(*p)]
    dq = [max(col) for col in zip(*q)]
    common = [ax for ax in range(4) if dp[ax] > 0 and dq[ax] > 0]
    if not common:
        return {_ZERO_KEY: 1}
    # a variable of only one input: the gcd divides that input's content in it
    for ax in range(4):
        if dp[ax] > 0 and dq[ax] == 0:
            return _coeff_gcd([q, *_univ_view(p, ax).values()])
        if dq[ax] > 0 and dp[ax] == 0:
            return _coeff_gcd([p, *_univ_view(q, ax).values()])

    # direct divisibility covers the frequent den-divides-num case cheaply
    small, large = (p, q) if len(p) <= len(q) else (q, p)
    if _divmod_exact(large, small) is not None:
        return _int_primitive(small)

    # main variable: smallest combined degree keeps the PRS short
    ax = min(common, key=lambda a: dp[a] + dq[a])
    up, uq = _univ_view(p, ax), _univ_view(q, ax)
    cp = _coeff_gcd(list(up.values()))
    cq = _coeff_gcd(list(uq.values()))
    pp = {d: _divmod_exact(s, cp) for d, s in up.items()}
    qq = {d: _divmod_exact(s, cq) for d, s in uq.items()}

    g = _prs(pp, qq, ax)
    cont = _pgcd_shifted(cp, cq)
    out = K.pmul(_univ_collapse(g, ax), cont)
    return _int_primitive(out)


_UNIT = {_ZERO_KEY: 1}


def _coeff_gcd(polys):
    g = {}
    for s in polys:
        g = pgcd(g, s)
        if g == _UNIT:
            return dict(_UNIT)
    return g


def _prs(u, v, ax):
    """Primitive part of gcd via the subresultant PRS (GCL algorithm 7.3)."""
    if max(u) < max(v):
        u, v = v, u
    g = {_ZERO_KEY: 1}
    h = {_ZERO_KEY: 1}
    while True:
        delta = max(u) - max(v)
        r = _prem(u, v)
        if not r:
            # v divides u: gcd is the primitive part of v
            cv = _coeff_gcd(list(v.values()))
            return {d: _divmod_exact(s, cv) for d, s in v.items()}
        if max(r) == 0:
            return {0: {_ZERO_KEY: 1}}
        u = v
        ghd = K.pmul(g, _pow_poly(h, delta))
        v = {d: _divmod_exact(s, ghd) for d, s in r.items()}
        g = u[max(u)]
        if delta >= 1:
            h = _divmod_exact(_pow_poly(g, delta), _pow_poly(h, delta - 1))
        # delta == 0 keeps h unchanged


def _pow_poly(p, n):
    out = {_ZERO_KEY: 1}
    for _ in range(n):
        out = K.pmul(out, p)
    return out


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------


class RatFunc:
    """Rational function in r, s, a, b over Q, in a unique canonical form.

    Canonical form: numerator and denominator have integer coefficients,
    are coprime after clearing negative exponents, and have combined
    content 1; the denominator has minimal exponent 0 in every variable and
    a positive graded-lex leading coefficient.  So 1/2 is num 1 over den 2,
    and a value is a Laurent polynomial exactly when its denominator is a
    single positive integer.  Equality is therefore a plain component
    comparison (and cross-multiplication agrees; the tests check both).
    Instances are immutable.

    Arithmetic relies on its operands being reduced, so it takes gcds of
    factors only (Henrici's rules; Knuth, TAOCP 4.5.1).  A single-term
    polynomial is a unit here (a monomial times a rational), so a gcd with
    one is never computed; a constant denominator means a Laurent value.
    - Product: gcd(n1 n2, d1 d2) = gcd(n1, d2) gcd(n2, d1), since n1 is
      coprime to d1 and n2 to d2.  Both are divided out before
      multiplying.  A quotient is the product with d2/n2.
    - Laurent quotient: for integer denominators c1, c2, (n1/c1) / (n2/c2)
      is q c2/c1 when n2 divides n1 with an integer quotient q, found by
      one exact division and no gcd; otherwise it is the product above.
    - Unit denominators: n1/1 * n2/1 is n1 n2 / 1 in canonical form
      already (a unit denominator needs no shift and no content division,
      and a product of nonzero integer polynomials is nonzero), so it
      skips the canonicalizing tail; so does n1/1 - n2/1 = (n1 - n2)/1
      unless it is zero.
    - Sum: with g = gcd(d1, d2), d1 = g d1', d2 = g d2', the sum is
      (n1 d2' + n2 d1') / (d1' d2).  Its numerator is coprime to d1' and
      d2', so only gcd(numerator, g) can cancel, and nothing can when g is
      a unit.
    - Power: the factors of n^k are those of n, so n^k / d^k is reduced,
      and it has the canonical content, shift and sign whenever n / d does.
    - Monomial powers: (c/d x^k)^n with c, d coprime and d > 0 is
      c^n/d^n x^kn, and for n < 0 it is (d'/c')^|n| x^kn with the sign of
      c moved into d' so the denominator stays positive.  That form is
      canonical as it stands, so inv() of a monomial and a quotient by one
      (the product with its inverse) take no canonicalizing tail.
    Each result then only needs the canonicalizing tail (_canonical).  The
    canonical form is unique, so these rules change no value and no byte
    of output; _normalize keeps the one-shot reduction for other callers.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=None, den=None):
        raise TypeError("use the constructors: RatFunc.from_int, monomial, gens, parse")

    # internal: trusted canonical components
    @classmethod
    def _make(cls, num, den):
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def _normalize(cls, num, den):
        """Canonical form of num/den for any Laurent dicts: cancel their
        gcd, then canonicalize."""
        if not den:
            raise DivisionByZero("zero denominator")
        if num and len(den) > 1:
            if num == den:
                return ONE
            g = pgcd(num, den)
            if len(g) > 1:
                num = _laurent_div_exact(num, g)
                den = _laurent_div_exact(den, g)
        return cls._canonical(num, den)

    @classmethod
    def _canonical(cls, num, den):
        """Canonical form of num/den for coprime Laurent dicts: shift den to
        minimal exponent 0, divide out the combined content and make den's
        leading coefficient positive."""
        if not num:
            return ZERO
        if len(den) == 1:
            # monomial denominator: shift it into the numerator
            ((k, c),) = den.items()
            if k != _ZERO_KEY:
                num = K.pshift(num, -k[0], -k[1], -k[2], -k[3])
                den = {_ZERO_KEY: c}
            if c == 1:
                return cls._make(num, _UNIT)
        else:
            md = _min_exps(den)
            if md != (0, 0, 0, 0):
                num = K.pshift(num, -md[0], -md[1], -md[2], -md[3])
                den = K.pshift(den, -md[0], -md[1], -md[2], -md[3])
        g = _intgcd(*num.values(), *den.values())
        if den[_leading(den)] < 0:
            g = -g
        if g != 1:
            num = {k: v // g for k, v in num.items()}
            den = {k: v // g for k, v in den.items()}
        return cls._make(num, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n) -> "RatFunc":
        return cls.from_fraction(Fraction(n))

    @classmethod
    def from_fraction(cls, c) -> "RatFunc":
        c = _to_frac(c)
        if c == 0:
            return ZERO
        return cls._make({_ZERO_KEY: c.numerator}, {_ZERO_KEY: c.denominator})

    @classmethod
    def monomial(cls, coeff, exp_r=0, exp_s=0, exp_a=0, exp_b=0) -> "RatFunc":
        """coeff * r^exp_r * s^exp_s * a^exp_a * b^exp_b, with the r- and
        s-exponents in (1/6)Z and integer exponents on a and b."""
        c = _to_frac(coeff)
        key = (_lattice_int(exp_r, "r"), _lattice_int(exp_s, "s"))
        key += (_bare_int(exp_a, "a"), _bare_int(exp_b, "b"))
        return cls._make({key: c.numerator}, {_ZERO_KEY: c.denominator}) if c else ZERO

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == _UNIT and self.den == _UNIT

    def is_laurent_polynomial(self) -> bool:
        return len(self.den) == 1

    def is_monomial(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def as_quotient(self):
        """The pair (p, q) of Laurent polynomials with self == p / q, read
        off the canonical form (q is the denominator)."""
        return RatFunc._make(self.num, _UNIT), RatFunc._make(self.den, _UNIT)

    def as_fraction(self) -> Fraction:
        """The value as a rational number; requires a constant."""
        if not self.num:
            return Fraction(0)
        if self.num.keys() == {_ZERO_KEY} and len(self.den) == 1:
            return Fraction(self.num[_ZERO_KEY], self.den[_ZERO_KEY])
        raise NotPolynomial("value is not constant")

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc.from_fraction(x)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        d1, d2 = self.den, o.den
        if d1 == d2:
            if len(d1) == 1:
                return RatFunc._canonical(K.padd(self.num, o.num), d1)
            return RatFunc._normalize(K.padd(self.num, o.num), d1)
        if len(d1) > 1 and len(d2) > 1:
            g = pgcd(d1, d2)
            if len(g) > 1:
                d1 = _laurent_div_exact(d1, g)
                num = K.padd(K.pmul(self.num, _laurent_div_exact(d2, g)), K.pmul(o.num, d1))
                if len(num) > 1:
                    h = pgcd(num, g)
                    if len(h) > 1:
                        num = _laurent_div_exact(num, h)
                        d2 = _laurent_div_exact(d2, h)
                return RatFunc._canonical(num, K.pmul(d1, d2))
        num = K.padd(K.pmul(self.num, d2), K.pmul(o.num, d1))
        return RatFunc._canonical(num, K.pmul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(K.pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den == _UNIT and o.den == _UNIT:
            # den 1 leaves content 1 and nothing to shift: canonical as computed
            num = K.psub(self.num, o.num)
            return RatFunc._make(num, _UNIT) if num else ZERO
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.num or not o.num:
            return ZERO
        if self.den == _UNIT and o.den == _UNIT:
            return RatFunc._make(K.pmul(self.num, o.num), _UNIT)
        if len(self.den) == 1 and len(o.den) == 1:
            return RatFunc._canonical(K.pmul(self.num, o.num), K.pmul(self.den, o.den))
        return _mul_coprime(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            raise DivisionByZero("division by the zero rational function")
        if not self.num:
            return ZERO
        if o.is_monomial():
            return self * o**-1
        if len(self.num) > 1 and len(self.den) == 1 and len(o.den) == 1:
            # the Laurent quotient (class docstring); the product below
            # when o does not divide self
            q = _laurent_div(self.num, o.num)
            if q is not None:
                yd = o.den[_ZERO_KEY]
                return RatFunc._canonical(q if yd == 1 else {k: c * yd for k, c in q.items()}, self.den)
        return _mul_coprime(self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def inv(self) -> "RatFunc":
        return self**-1 if self.num and self.is_monomial() else ONE / self

    def __pow__(self, n):
        """Integer powers of any value; a Fraction exponent outside Z only
        for a monomial with coefficient 1 whose exponents stay in the
        (1/6)Z lattice, otherwise LatticeOverflow."""
        if not isinstance(n, int):
            if not isinstance(n, Fraction):
                return NotImplemented
            if n.denominator == 1:
                return self**n.numerator
            if len(self.num) != 1 or len(self.den) != 1:
                raise LatticeOverflow("fractional power of a non-monomial value")
            ((k, c),) = self.num.items()
            if c != 1 or self.den != _UNIT:
                raise LatticeOverflow("fractional power of a monomial with coefficient != 1")
            es = [kk * n for kk in k]
            if any(e.denominator != 1 for e in es):
                raise LatticeOverflow(f"exponent leaves the (1/{LATTICE})Z lattice")
            return RatFunc._make({tuple(int(e) for e in es): 1}, _UNIT)
        if self.num and self.is_monomial():
            # (c/d) x^k with c, d coprime and d > 0: the power needs no
            # normalization, and (c/d x^k)^-n = (d/c)^n x^-kn once the sign
            # of c moves into the numerator
            ((k, c),) = self.num.items()
            d = self.den[_ZERO_KEY]
            if n < 0:
                n, c, d = -n, (d if c > 0 else -d), abs(c)
                k = (-k[0], -k[1], -k[2], -k[3])
            key = (k[0] * n, k[1] * n, k[2] * n, k[3] * n)
            return RatFunc._make({key: c**n}, {_ZERO_KEY: d**n})
        if n < 0:
            return self.inv() ** -n
        return RatFunc._make(_pow_poly(self.num, n), _pow_poly(self.den, n))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def __hash__(self):
        # a constant hashes as its Fraction, so as the int or Fraction it
        # equals; canonical forms are unique, so equal values hash equal
        num, den = self.num, self.den
        if len(den) == 1 and _ZERO_KEY in den and (not num or len(num) == 1 and _ZERO_KEY in num):
            n, d = num.get(_ZERO_KEY, 0), den[_ZERO_KEY]
            return hash(n) if d == 1 else hash(Fraction(n, d))
        return hash((frozenset(num.items()), frozenset(den.items())))

    def __bool__(self):
        return bool(self.num)

    # -- substitution --------------------------------------------------------

    def substitute(self, r=None, s=None, a=None, b=None) -> "RatFunc":
        """Exact image under r|s|a|b -> RatFunc, int or Fraction maps
        (identity when None): substitution(r, s, a, b)(self).

        Raises TypeError naming the variable for any other image,
        SpecializationPole when the denominator vanishes identically,
        LatticeOverflow when a fractional exponent meets a non-monomial image.
        """
        return substitution(r, s, a, b)(self)

    def as_point(self):
        """(key, c) for a nonzero monomial c * r^(k0/6) s^(k1/6) a^k2 b^k3,
        with c an int or, off the integers, a Fraction; None for any other
        value.  Equal monomials have equal points (the canonical form is
        unique), and from_point inverts it."""
        if len(self.num) != 1 or len(self.den) != 1:
            return None
        ((k, c),) = self.num.items()
        d = self.den[_ZERO_KEY]
        return k, (c if d == 1 else Fraction(c, d))

    @classmethod
    def from_point(cls, key, c) -> "RatFunc":
        """The monomial c * r^(k0/6) s^(k1/6) a^k2 b^k3 of the lattice point
        (key, c), c a nonzero int or Fraction."""
        return cls._make({key: c.numerator}, {_ZERO_KEY: c.denominator})

    def __repr__(self):
        return f"RatFunc({render(self)!r})"

    def __str__(self):
        return render(self)


P61 = 2**61 - 1


def eval_mod(x: RatFunc, point, monomials=None):
    """x mod P61 at point = (t_r, t_s, a, b), all nonzero, where r = t_r^6
    and s = t_s^6 make the stored r- and s-exponents (sixths) integer
    powers; None where the denominator vanishes.  On the values regular at
    the point it is a ring homomorphism to GF(P61).  Calls may share a
    monomials dict, the monomial values at the point."""
    monomials = {} if monomials is None else monomials

    def at(p):
        total = 0
        for key, c in p.items():
            m = monomials.get(key)
            if m is None:
                m = 1
                for t, e in zip(point, key):
                    m = m * pow(t, e, P61) % P61
                monomials[key] = m
            total += c * m
        return total % P61

    # a Laurent value's denominator is a positive integer
    d = at(x.den) if len(x.den) > 1 else x.den[_ZERO_KEY] % P61
    return None if d == 0 else at(x.num) * pow(d, -1, P61) % P61


def substitution(r=None, s=None, a=None, b=None):
    """The map x -> x.substitute(r, s, a, b), compiled once for every value
    it is applied to.

    Compiling coerces the images (TypeError naming the variable for any
    other image) and reads the axis moves of a relabel (_moves), so neither
    is repeated per value.  A numerator or denominator is then mapped in
    one of two ways:
    - When every image is a monomial x^m with coefficient 1, the image of a
      term is a term: an exponent e on a substituted axis becomes e m (e/6 m
      on r and s, whose stored exponents are sixths), so the keys are
      mapped and the coefficients of equal keys added, with no power and no
      product (_relabel).  A key that leaves the (1/6)Z lattice there falls
      through to the general path, which raises its LatticeOverflow.
    - The general path groups the terms by their exponents on the
      substituted axes: a class keeps its other exponents as one Laurent
      coefficient, is multiplied by each image's power and is added to the
      sum once.  The powers images[ax] ** e are kept in one table that
      belongs to the map, so each distinct power is raised once however
      many values the map is applied to, and is dropped with the map.
    A Laurent value's denominator is a positive integer, so its image is
    the image of its numerator over that integer, canonicalized, with no
    quotient of rational functions; any other value's image is the
    quotient of the two images, after SpecializationPole when the
    denominator's image is zero.  Without images the map is the identity.
    """
    images = []
    for name, img in zip("rsab", (r, s, a, b)):
        if img is not None:
            img = RatFunc._coerce(img)
            if img is NotImplemented:
                raise TypeError(f"image of {name} must be RatFunc, int or Fraction")
        images.append(img)
    axes = [ax for ax in range(4) if images[ax] is not None]
    if not axes:
        return lambda x: x
    moves = _moves(images)
    powers = {}

    def poly(p) -> RatFunc:
        if moves is not None:
            out = _relabel(p, moves)
            if out is not None:
                return out
        classes = {}
        for k, c in p.items():
            rest = list(k)
            for ax in axes:
                rest[ax] = 0
            classes.setdefault(tuple(k[ax] for ax in axes), {})[tuple(rest)] = c
        out = ZERO
        for exps, rest in classes.items():
            term = RatFunc._make(rest, _UNIT)
            for ax, e in zip(axes, exps):
                if e:
                    pw = powers.get((ax, e))
                    if pw is None:
                        pw = powers[ax, e] = images[ax] ** (Fraction(e, LATTICE) if ax < 2 else e)
                    term = term * pw
            out = out + term
        return out

    def substitute(x: RatFunc) -> RatFunc:
        ni = poly(x.num)
        if len(x.den) > 1:
            di = poly(x.den)
            if di.is_zero():
                raise SpecializationPole("substitution sends the denominator to zero")
            return ni / di
        d = x.den[_ZERO_KEY]
        return ni if d == 1 else RatFunc._canonical(ni.num, {k: v * d for k, v in ni.den.items()})

    return substitute


def _moves(images):
    """The axis moves of a relabel: (ax, the nonzero (j, m_j) of the image
    x^m of axis ax, the lattice scale of ax) per substituted axis; None
    unless every image is a monomial with coefficient 1."""
    moves = []
    for ax, img in enumerate(images):
        if img is not None:
            if len(img.num) != 1 or img.den != _UNIT:
                return None
            ((m, c),) = img.num.items()
            if c != 1:
                return None
            moves.append((ax, [(j, mj) for j, mj in enumerate(m) if mj], LATTICE if ax < 2 else 1))
    return moves


def _relabel(p, moves) -> RatFunc:
    """The image of the Laurent dict p under the relabel moves (_moves) when
    every mapped key stays on the lattice; None otherwise.  key[ax] -= e
    removes the original exponent e of a moved axis whatever earlier moves
    added to it, so the moves may be taken one at a time."""
    out = {}
    for k, c in p.items():
        key = list(k)
        for ax, m, d in moves:
            e = k[ax]
            if e:
                key[ax] -= e
                for j, mj in m:
                    q, miss = divmod(mj * e, d)
                    if miss:
                        return None
                    key[j] += q
        key = tuple(key)
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            del out[key]
    return RatFunc._make(out, _UNIT)


# ---------------------------------------------------------------------------
# named generators and quantum numbers
# ---------------------------------------------------------------------------

ZERO = RatFunc._make({}, _UNIT)
ONE = RatFunc._make(_UNIT, _UNIT)


def gens():
    """The four generators (r, s, a, b)."""
    return (
        RatFunc.monomial(1, 1, 0, 0, 0),
        RatFunc.monomial(1, 0, 1, 0, 0),
        RatFunc.monomial(1, 0, 0, 1, 0),
        RatFunc.monomial(1, 0, 0, 0, 1),
    )


R, S, A, B = gens()

rf = RatFunc.from_int


def quantum_int(n: int, base=None) -> RatFunc:
    """Two-parameter quantum integer r^(n-1) + r^(n-2) s + ... + s^(n-1).

    base is an (r_i, s_i) pair of RatFunc values, default (r, s), whose
    value is read off its exponents with no product.  quantum_int(0) is 0.
    """
    if n < 0:
        raise ValueError("quantum_int needs n >= 0")
    if base is None:
        return quantum_int_sum([(1, (), n)])
    br, bs = base
    out = ZERO
    for j in range(n):
        out = out + br ** (n - 1 - j) * bs ** j
    return out


def quantum_int_sum(parts, den: int = 1) -> RatFunc:
    """(sum of c * x_1 ... x_m * [k] over the (c, (x_1, ..., x_m), k) in
    parts) / den, for integers c, monomials x_j of coefficient 1, k >= 0
    and a positive integer den.  Its terms are read off their exponents, as
    quantum_int's are, so it takes no product and no gcd."""
    if den < 1:
        raise ValueError(f"den must be a positive integer, got {den}")
    terms = {}
    for c, xs, k in parts:
        er = es = ea = eb = 0
        for x in xs:
            if len(x.num) != 1 or x.den != _UNIT or 1 not in x.num.values():
                raise ValueError(f"{render(x)} is not a monomial of coefficient 1")
            ((kr, ks, ka, kb),) = x.num
            er, es, ea, eb = er + kr, es + ks, ea + ka, eb + kb
        for j in range(k):
            key = (er + LATTICE * (k - 1 - j), es + LATTICE * j, ea, eb)
            v = terms.get(key, 0) + c
            if v:
                terms[key] = v
            else:
                del terms[key]
    if not terms:
        return ZERO
    g = _intgcd(den, *terms.values())
    if g != 1:
        terms, den = {key: v // g for key, v in terms.items()}, den // g
    return RatFunc._make(terms, _UNIT if den == 1 else {_ZERO_KEY: den})


def gauss_binom(m: int, k: int, base=None) -> RatFunc:
    """Gaussian binomial [m]! / ([k]! [m-k]!) over the given base pair.

    The quotient must come out as a Laurent polynomial; a nontrivial
    remainder signals an implementation bug and raises NotPolynomial.
    """
    if not 0 <= k <= m:
        raise ValueError("gauss_binom needs 0 <= k <= m")
    out = ONE
    for j in range(1, k + 1):
        out = out * quantum_int(m - k + j, base) / quantum_int(j, base)
    if not out.is_laurent_polynomial():
        raise NotPolynomial(f"gauss_binom({m},{k}) left a remainder")
    return out


def _mul_coprime(n1, d1, n2, d2) -> RatFunc:
    """(n1/d1) * (n2/d2) for coprime pairs (n1, d1) and (n2, d2): cancel
    gcd(n1, d2) and gcd(n2, d1), whose product is the gcd of the products."""
    if len(n1) > 1 and len(d2) > 1:
        g = pgcd(n1, d2)
        if len(g) > 1:
            n1 = _laurent_div_exact(n1, g)
            d2 = _laurent_div_exact(d2, g)
    if len(n2) > 1 and len(d1) > 1:
        g = pgcd(n2, d1)
        if len(g) > 1:
            n2 = _laurent_div_exact(n2, g)
            d1 = _laurent_div_exact(d1, g)
    return RatFunc._canonical(K.pmul(n1, n2), K.pmul(d1, d2))


def monomial_quotient(x: RatFunc, y: RatFunc):
    """x / y when both are Laurent polynomials and x is a monomial times y,
    else None.  The monomial is the ratio of their leading terms, confirmed
    by one product, so no gcd is taken."""
    if not (x.num and y.num) or len(x.den) != 1 or len(y.den) != 1:
        return None
    lx, ly = _leading(x.num), _leading(y.num)
    c = Fraction(x.num[lx] * y.den[_ZERO_KEY], y.num[ly] * x.den[_ZERO_KEY])
    m = RatFunc._make({tuple(a - b for a, b in zip(lx, ly)): c.numerator}, {_ZERO_KEY: c.denominator})
    return m if y * m == x else None


def _laurent_div(p, g):
    """p / g for Laurent dicts, or None when g does not divide p with a
    quotient over the integers."""
    mp = _min_exps(p)
    mg = _min_exps(g)
    q = _divmod_exact(
        K.pshift(p, -mp[0], -mp[1], -mp[2], -mp[3]),
        K.pshift(g, -mg[0], -mg[1], -mg[2], -mg[3]),
    )
    if q is None:
        return None
    return K.pshift(q, mp[0] - mg[0], mp[1] - mg[1], mp[2] - mg[2], mp[3] - mg[3])


def _laurent_div_exact(p, g):
    """Divide a Laurent dict by a Laurent dict that divides it exactly."""
    q = _laurent_div(p, g)
    if q is None:
        raise NotPolynomial("inexact division during canonicalization")
    return q


# ---------------------------------------------------------------------------
# canonical text rendering and parsing
# ---------------------------------------------------------------------------

_VAR_NAMES = ("r", "s", "a", "b")


def _render_exp(e: Fraction) -> str:
    if e.denominator == 1:
        n = int(e)
        return "" if n == 1 else (f"^{n}" if n > 0 else f"^({n})")
    return f"^({e.numerator}/{e.denominator})"


def _render_poly(p) -> str:
    if not p:
        return "0"
    parts = []
    for k in sorted(p, key=_order_key, reverse=True):
        c = p[k]
        exps = (
            Fraction(k[0], LATTICE),
            Fraction(k[1], LATTICE),
            Fraction(k[2]),
            Fraction(k[3]),
        )
        factors = [
            _VAR_NAMES[ax] + _render_exp(e)
            for ax, e in enumerate(exps)
            if e != 0
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def render(x: RatFunc) -> str:
    """Canonical text form; parse(render(x)) == x exactly.

    Both parts are divided by the leading coefficient of the denominator,
    so the text shows a monic denominator.
    """
    if x.is_zero():
        return "0"
    num, den = x.num, x.den
    lc = den[_leading(den)]
    if lc != 1:
        num = {k: Fraction(c, lc) for k, c in num.items()}
        den = {k: Fraction(c, lc) for k, c in den.items()}
    ns = _render_poly(num)
    if len(den) == 1:
        return ns
    return f"({ns})/({_render_poly(den)})"


# Parser bounds.  Every value the parser builds (each literal, sum,
# product, quotient and power) must stay inside them, so parsing takes
# bounded time and parse(render(x)) == x for every x that parse returns:
# render prints integers of at most MAX_DIGITS digits (far below the 4300
# digits of Python's int-to-str limit) and exponents of at most
# MAX_EXPONENT.  Parentheses and unary minus together nest at most
# MAX_NESTING deep, far inside Python's recursion limit; render nests at
# most 2 deep.  Digits are ASCII 0-9 only.
MAX_DIGITS = 1000
MAX_EXPONENT = 1000
MAX_TERMS = 256
MAX_NESTING = 100
_DIGIT_LIMIT = 10**MAX_DIGITS


def _is_digit(c: str) -> bool:
    return "0" <= c <= "9"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg):
        raise ParseError(self.pos, msg)

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def bounded(self, x: RatFunc) -> RatFunc:
        """x, after checking it against the parser bounds."""
        if len(x.num) + len(x.den) > MAX_TERMS:
            self.error(f"value has more than {MAX_TERMS} terms")
        for p in (x.num, x.den):
            for k, c in p.items():
                if not -_DIGIT_LIMIT < c < _DIGIT_LIMIT:
                    self.error(f"value has a coefficient of more than {MAX_DIGITS} digits")
                # r and s exponents are stored in sixths
                if max(abs(k[0]), abs(k[1])) > MAX_EXPONENT * LATTICE or max(abs(k[2]), abs(k[3])) > MAX_EXPONENT:
                    self.error(f"value has an exponent above {MAX_EXPONENT}")
        return x

    def nested(self, parse) -> RatFunc:
        """parse(), one level of parentheses or unary minus deeper."""
        if self.depth == MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING}")
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def expr(self) -> RatFunc:
        out = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                out = self.bounded(out + self.term())
            elif c == "-":
                self.pos += 1
                out = self.bounded(out - self.term())
            else:
                return out

    def term(self) -> RatFunc:
        out = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                out = self.bounded(out * self.factor())
            elif c == "/":
                self.pos += 1
                self.skip()
                start = self.pos
                d = self.factor()
                if not d:
                    raise ParseError(start, "division by zero")
                out = self.bounded(out / d)
            else:
                return out

    def factor(self) -> RatFunc:
        c = self.peek()
        if c == "-":
            self.pos += 1
            return -self.nested(self.factor)
        start = self.pos
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            e = self.exponent()
            if abs(e) > MAX_EXPONENT:
                self.error(f"exponent above {MAX_EXPONENT}")
            if e.denominator != 1:
                return self.bounded(base**e)
            n = int(e)
            if n < 0:
                if not base:
                    raise ParseError(start, "division by zero")
                base, n = base.inv(), -n
            if base.is_monomial():
                # skip computing a power whose coefficient is sure to exceed the bound
                c = max(map(abs, (*base.num.values(), *base.den.values())))
                if (c.bit_length() - 1) * n > _DIGIT_LIMIT.bit_length():
                    self.error(f"value has a coefficient of more than {MAX_DIGITS} digits")
                return self.bounded(base**n)
            # one factor at a time, so a power that outgrows the bounds
            # stops as soon as it does
            out = ONE
            for _ in range(n):
                out = self.bounded(out * base)
            return out
        return base

    def exponent(self) -> Fraction:
        """An optionally signed integer.  A rational exponent needs the
        parentheses that render prints, so r^-1/2 is r^(-1) / 2."""
        if self.peek() != "(":
            return Fraction(self.signed_integer())
        self.pos += 1
        e = Fraction(self.signed_integer())
        if self.peek() == "/":
            self.pos += 1
            self.skip()
            start = self.pos
            d = self.integer()
            if not d:
                raise ParseError(start, "division by zero")
            e /= d
        if self.peek() != ")":
            self.error("expected ')' after exponent")
        self.pos += 1
        return e

    def signed_integer(self) -> int:
        if self.peek() == "-":
            self.pos += 1
            return -self.integer()
        return self.integer()

    def integer(self) -> int:
        self.skip()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if start == self.pos:
            self.error("expected digits")
        if self.pos - start > MAX_DIGITS:
            self.error(f"integer literal of more than {MAX_DIGITS} digits")
        return int(self.text[start:self.pos])

    def atom(self) -> RatFunc:
        c = self.peek()
        if c == "(":
            self.pos += 1
            out = self.nested(self.expr)
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return out
        if c in _VAR_NAMES:
            self.pos += 1
            return (R, S, A, B)[_VAR_NAMES.index(c)]
        if _is_digit(c):
            n = self.integer()
            if self.peek() == "/":
                # lookahead: only treat as a rational literal when followed by digits
                save = self.pos
                self.pos += 1
                if _is_digit(self.peek()):
                    start = self.pos
                    d = self.integer()
                    if not d:
                        raise ParseError(start, "division by zero")
                    return RatFunc.from_fraction(Fraction(n, d))
                self.pos = save
            return RatFunc.from_int(n)
        self.error("expected a value")


def parse(text: str) -> RatFunc:
    """Parse the canonical text syntax back into a RatFunc."""
    p = _Parser(text)
    out = p.expr()
    p.skip()
    if p.pos != len(text):
        p.error("trailing input")
    return out
