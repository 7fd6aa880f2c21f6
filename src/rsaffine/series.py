"""Truncated formal power series with RatFunc coefficients.

A series carries a truncation order N, a direction ('asc' for powers
x^0..x^N, 'desc' for x^0..x^-N), and exact coefficients c_0..c_N.
Products truncate; nothing beyond index N is ever read or written.  The
two directions represent Laurent expansions about 0 and about infinity of
the same rational functions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadConstantTerm, MixedSeries
from .field import ONE, ZERO, RatFunc

ASC = "asc"
DESC = "desc"


class TruncSeries:
    __slots__ = ("order", "direction", "coeffs")

    def __init__(self, order, coeffs, direction=ASC):
        if direction not in (ASC, DESC):
            raise ValueError("direction must be 'asc' or 'desc'")
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the order admits")
        coeffs += [ZERO] * (order + 1 - len(coeffs))
        self.order = order
        self.direction = direction
        self.coeffs = tuple(RatFunc._coerce(c) for c in coeffs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, c, order=8, direction=ASC):
        return cls(order, [c], direction)

    @classmethod
    def one(cls, order=8, direction=ASC):
        return cls.constant(ONE, order, direction)

    @classmethod
    def variable(cls, order=8, direction=ASC):
        """The series x (or x^-1 in descending direction) itself."""
        return cls(order, [ZERO, ONE], direction)

    # -- helpers --------------------------------------------------------------

    def _check(self, other):
        if self.direction != other.direction or self.order != other.order:
            raise MixedSeries(
                f"cannot combine {self.direction}/{self.order} "
                f"with {other.direction}/{other.order}"
            )

    def __getitem__(self, k):
        return self.coeffs[k]

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.direction == other.direction
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.direction, self.order, self.coeffs))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            c = list(self.coeffs)
            c[0] = c[0] + other
            return TruncSeries(self.order, c, self.direction)
        self._check(other)
        return TruncSeries(
            self.order,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.direction,
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.order, [-c for c in self.coeffs], self.direction)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return self + (-RatFunc._coerce(other))
        self._check(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return TruncSeries(self.order, [c * other for c in self.coeffs], self.direction)
        self._check(other)
        n = self.order
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(self.order, out, self.direction)

    __rmul__ = __mul__

    def inv(self) -> "TruncSeries":
        """Multiplicative inverse; needs c_0 != 0."""
        return TruncSeries.one(self.order, self.direction) / self

    def __truediv__(self, other):
        """Quotient by a scalar, or by a series b with b_0 != 0 through the
        division recurrence q_k = (a_k - sum_{j>=1} b_j q_(k-j)) / b_0
        (Knuth, TAOCP vol. 2, 4.7).  Zero b_j and zero q_(k-j) are skipped."""
        if isinstance(other, (int, Fraction, RatFunc)):
            return self * RatFunc._coerce(other).inv()
        self._check(other)
        b0 = other.coeffs[0]
        if b0.is_zero():
            raise BadConstantTerm("division needs a nonzero constant term")
        terms = [(j, b) for j, b in enumerate(other.coeffs) if j and not b.is_zero()]
        out = []
        for k, acc in enumerate(self.coeffs):
            for j, b in terms:
                if j > k:
                    break
                if not out[k - j].is_zero():
                    acc = acc - b * out[k - j]
            out.append(acc / b0)
        return TruncSeries(self.order, out, self.direction)

    def log(self) -> "TruncSeries":
        """Series logarithm; needs c_0 == 1."""
        if not self.coeffs[0].is_one():
            raise BadConstantTerm("log needs constant term 1")
        n = self.order
        out = [ZERO] * (n + 1)
        for k in range(1, n + 1):
            acc = self.coeffs[k] * k
            for j in range(1, k):
                a = self.coeffs[k - j]
                if not out[j].is_zero() and not a.is_zero():
                    acc = acc - out[j] * j * a
            out[k] = acc / k
        return TruncSeries(self.order, out, self.direction)

    def exp(self) -> "TruncSeries":
        """Series exponential; needs c_0 == 0."""
        if not self.coeffs[0].is_zero():
            raise BadConstantTerm("exp needs constant term 0")
        n = self.order
        out = [ONE] + [ZERO] * n
        for k in range(1, n + 1):
            acc = ZERO
            for j in range(1, k + 1):
                g = self.coeffs[j]
                if not g.is_zero() and not out[k - j].is_zero():
                    acc = acc + g * j * out[k - j]
            out[k] = acc / k
        return TruncSeries(self.order, out, self.direction)

    def truncate(self, order) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(order, self.coeffs[: order + 1], self.direction)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __repr__(self):
        sign = "" if self.direction == ASC else "-"
        terms = ", ".join(f"{c}*z^{sign}{k}" for k, c in enumerate(self.coeffs))
        return f"TruncSeries[{terms}]"


def linear(c0, c1, order=8, direction=ASC) -> TruncSeries:
    return TruncSeries(order, [c0, c1], direction)


def ratio_series(num_coeffs, den_coeffs, order=8, direction=ASC) -> TruncSeries:
    """Expansion of a polynomial ratio num/den with den[0] invertible."""
    num = TruncSeries(order, num_coeffs[: order + 1], direction)
    den = TruncSeries(order, den_coeffs[: order + 1], direction)
    return num / den
