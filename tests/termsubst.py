"""Term-by-term substitution: the test oracle for RatFunc.substitute.

Every term of the numerator and of the denominator starts from its integer
coefficient and is multiplied by one power of an image, or by its own
monomial where the axis has no image, for each nonzero exponent; the terms
are then added one at a time.  Canonical forms are unique, so any grouping
of the terms must give the same value and raise the same first error.
"""

from __future__ import annotations

from fractions import Fraction

from rsaffine.errors import SpecializationPole
from rsaffine.field import LATTICE, ZERO, RatFunc


def subst_poly(p, images) -> RatFunc:
    """The image of the Laurent dict p, images[ax] put for each axis whose
    image is not None."""
    out = ZERO
    for key, c in p.items():
        term = RatFunc.from_fraction(c)
        for ax in range(4):
            scaled = key[ax]
            if scaled == 0:
                continue
            img = images[ax]
            if img is None:
                kk = [0, 0, 0, 0]
                kk[ax] = scaled
                term = term * RatFunc._make({tuple(kk): 1}, {(0, 0, 0, 0): 1})
                continue
            term = term * img ** (Fraction(scaled, LATTICE) if ax < 2 else scaled)
        out = out + term
    return out


def substitute(x: RatFunc, r=None, s=None, a=None, b=None) -> RatFunc:
    """x with r, s, a, b mapped to the given images (identity where None)."""
    images = [None if img is None else RatFunc._coerce(img) for img in (r, s, a, b)]
    ni = subst_poly(x.num, images)
    di = subst_poly(x.den, images)
    if di.is_zero():
        raise SpecializationPole("substitution sends the denominator to zero")
    return ni / di
