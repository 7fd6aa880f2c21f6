"""Truncated formal power series with RatFunc coefficients: the test oracle
for the coefficient tuples that rsaffine.drinfeld expands.

A series carries a truncation order N and exact coefficients c_0..c_N.
Products truncate; nothing beyond index N is ever read or written.  An
expansion about infinity is the same object, its coefficient of x^-k at
index k, so the one set of recurrences serves both.
"""

from __future__ import annotations

from rsaffine.errors import RsaffineError
from rsaffine.field import ONE, ZERO, RatFunc


class BadConstantTerm(RsaffineError):
    """A series constant term violates a precondition: a zero w(0)
    eigenvalue, which the log-derivative recurrence (seriesoracle) divides
    by, or a constant term a series quotient, logarithm or exponential
    cannot take.  Only these test oracles raise it: the library reads a(l)
    off its closed form and expands no series quotient."""


class TruncSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the order admits")
        coeffs += [ZERO] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = tuple(RatFunc._coerce(c) for c in coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncSeries({self.order}, {list(map(str, self.coeffs))})"

    def __add__(self, other):
        return TruncSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            return TruncSeries(self.order, [c * other for c in self.coeffs])
        n = self.order
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            for j in range(n + 1 - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return TruncSeries(n, out)

    def __truediv__(self, other):
        """The series q with q * other == self, solved for q_0, q_1, ... in
        turn; needs other's constant term nonzero."""
        b0 = other.coeffs[0]
        if b0.is_zero():
            raise BadConstantTerm("division needs a nonzero constant term")
        out = []
        for k, acc in enumerate(self.coeffs):
            for j in range(1, k + 1):
                acc = acc - other.coeffs[j] * out[k - j]
            out.append(acc / b0)
        return TruncSeries(self.order, out)

    def inv(self) -> "TruncSeries":
        return TruncSeries(self.order, [ONE]) / self

    def log(self) -> "TruncSeries":
        """Series logarithm, from k c_k = sum_j j l_j c_(k-j); needs c_0 == 1."""
        if not self.coeffs[0].is_one():
            raise BadConstantTerm("log needs constant term 1")
        n = self.order
        out = [ZERO] * (n + 1)
        for k in range(1, n + 1):
            acc = self.coeffs[k] * k
            for j in range(1, k):
                acc = acc - out[j] * j * self.coeffs[k - j]
            out[k] = acc / k
        return TruncSeries(n, out)

    def exp(self) -> "TruncSeries":
        """Series exponential, from k e_k = sum_j j g_j e_(k-j); needs c_0 == 0."""
        if not self.coeffs[0].is_zero():
            raise BadConstantTerm("exp needs constant term 0")
        n = self.order
        out = [ONE] + [ZERO] * n
        for k in range(1, n + 1):
            acc = ZERO
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * j * out[k - j]
            out[k] = acc / k
        return TruncSeries(n, out)
