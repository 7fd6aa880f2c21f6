"""Exception hierarchy for the exact-arithmetic and representation layers."""


class RsaffineError(Exception):
    """Base class for all package errors."""


class DivisionByZero(RsaffineError, ZeroDivisionError):
    """Division by the zero rational function."""


class NotPolynomial(RsaffineError):
    """An exact division that must be remainder-free left a remainder."""


class SpecializationPole(RsaffineError):
    """A substitution sends a denominator to zero."""


class ParseError(RsaffineError, ValueError):
    """Text the scalar parser refuses; pos is the offset of the error in it."""

    def __init__(self, pos, msg):
        super().__init__(f"parse error at {pos}: {msg}")
        self.pos = pos


class LatticeOverflow(RsaffineError):
    """A required exponent does not lie in the (1/L) lattice."""


class UnsupportedRank(RsaffineError):
    """Rank outside the admissible range of the affine family."""


class IndexOutOfRange(RsaffineError, IndexError):
    """Node or weight index outside the table/module range."""


class MissingGenerator(RsaffineError, KeyError):
    """A relation check or word needs a generator the module never assigned."""


class WindowTooSmall(RsaffineError):
    """A relation instance needs a current index outside the materialized window."""


class NotEigenvector(RsaffineError):
    """A vector expected to be an eigenvector is not one."""


class NoSolution(RsaffineError):
    """The eigenvalue series is not of polynomial-ratio form."""


class MirrorMismatch(RsaffineError):
    """The descending series fails the mirrored polynomial identity."""


class TypeMismatch(RsaffineError, TypeError):
    """Incompatible module types combined (e.g. tensor of distinct types)."""
