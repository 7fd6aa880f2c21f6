"""Parameter specializations: s -> r^-1, s -> r, r -> s^k, and their images
on pairing tables and matrix modules.

Specialization acts on matrices entrywise; a genuinely divergent entry
raises SpecializationPole.  The specialized module carries the images of
(r, s) so relation suites re-run with the right coefficients where those
coefficients stay finite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .errors import SpecializationPole
from .field import MAX_EXPONENT, R, S, RatFunc, substitution
from .rep_core import MatrixModule

S_TO_R_INVERSE = "s_to_r_inverse"
S_TO_R = "s_to_r"
R_TO_S_POW = "r_to_s_pow"
INDEPENDENT = "independent"


@dataclass(frozen=True)
class SpecMap:
    """One of the parameter collapses; k parametrizes r -> s^k (k != 1,
    which would duplicate s -> r read backwards).  |k| < MAX_EXPONENT, so
    that s^k and s^(k-1), s^(1-k), the images of r and of the A1 table
    entries r*s^-1, r^-1*s, stay within the parser's exponent bound."""

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in (S_TO_R_INVERSE, S_TO_R, R_TO_S_POW, INDEPENDENT):
            raise ValueError(f"unknown specialization {self.kind!r}")
        if self.kind == R_TO_S_POW and self.k == 1:
            raise ValueError("r -> s^1 duplicates the s -> r map")
        if self.kind == R_TO_S_POW and abs(self.k) >= MAX_EXPONENT:
            raise ValueError(f"r -> s^k needs |k| < {MAX_EXPONENT}")

    def subs(self) -> dict:
        if self.kind == S_TO_R_INVERSE:
            return {"s": R**-1}
        if self.kind == S_TO_R:
            return {"s": R}
        if self.kind == R_TO_S_POW:
            return {"r": S**self.k}
        return {}

    def apply(self, x: RatFunc) -> RatFunc:
        """The image of one value; specialize_module compiles the map once
        for every entry of a module."""
        return substitution(**self.subs())(x)


def parse_spec_map(text: str) -> SpecMap:
    """'s=r^-1' | 's=r' | 'r=s^k' (integer k != 1) | 'independent'."""
    t = text.replace(" ", "")
    if t in ("s=r^-1", "s=r^(-1)", "s=1/r"):
        return SpecMap(S_TO_R_INVERSE)
    if t == "s=r":
        return SpecMap(S_TO_R)
    if t == "independent":
        return SpecMap(INDEPENDENT)
    m = re.fullmatch(r"r=s\^(-?[0-9]+|\(-?[0-9]+\))", t)
    if m:
        k = m[1].strip("()")
        # checked on the text, as in cartan.parse_type: int() refuses
        # strings of more than 4300 digits, leading zeros included
        digits = k.lstrip("-").lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)):
            raise ValueError(f"r -> s^k needs |k| < {MAX_EXPONENT}")
        return SpecMap(R_TO_S_POW, -int(digits) if k.startswith("-") else int(digits))
    raise ValueError("expected s=r^-1, s=r, r=s^k or independent")


def _map_generators(mod: MatrixModule, fn) -> dict:
    """fn applied entrywise to every generator matrix; a pole names the
    first generator, in assignment order, that has one."""
    assign = {}
    for g, mat in mod.assign.items():
        try:
            assign[g] = mat.map(fn)
        except SpecializationPole as exc:
            raise SpecializationPole(f"generator {g} has a pole: {exc}") from None
    return assign


def substitute_module(mod: MatrixModule, **subs) -> MatrixModule:
    """Image of mod under RatFunc.substitute(**subs), applied to every
    generator matrix entrywise and to the table's entries and its images of
    (r, s), from which the relation coefficients are read (classical data
    and diagnostics inherited, not recomputed).  One compiled map
    (field.substitution) serves every entry."""
    sub = substitution(**subs)
    assign = _map_generators(mod, sub)
    entries = tuple(tuple(sub(e) for e in row) for row in mod.table.entries)
    rs = tuple(sub(x) for x in mod.table.rs)
    return MatrixModule(replace(mod.table, entries=entries, rs=rs), assign, check=False)


def reports_at_pin(check, symbolic: MatrixModule, a=None, b=None) -> list:
    """check(substitute_module(symbolic, a=a, b=b)), computed by one check on
    the symbolic module.  A pin is any nonzero rational function, a scalar
    such as 3/2 or 1+r, or one in a itself, such as c*a.

    Lemma: substituting a and b is a ring homomorphism on the rational
    functions whose denominators do not vanish at the pin, so it commutes
    with the matrix products, sums and scalings a relation check computes.
    The scalars a check brings in (table entries, rho, theta(l), 1/(r-s))
    contain no a or b, and the pin fixes r and s.  So once every entry of
    symbolic is regular at the pin, the two sides of each instance on the
    pinned module are the images of its two symbolic sides.  Read one way,
    an instance that holds symbolically holds at the pin; read the other,
    a symbolic failure holds at the pin exactly when the images of its
    sides agree.  Each symbolic failure is therefore mapped through the pin
    and kept when its images differ, with the pinned sides the direct check
    would report (the canonical form is unique), in the same order.

    Regularity is checked as substitute_module checks it, walking the
    stored entries generator by generator in assignment order, with one
    substitution per distinct entry denominator and no mapped copy, and
    raises the same SpecializationPole, naming the same generator.  One
    compiled map (field.substitution) serves that walk and the failures.
    Without a pin the symbolic run is the run; a zero pin, where a^-1 or
    b^-1 is not regular, takes the direct path and raises what the
    substitution raises.

    Lemma (loop twists): let every entry of each current x+-(k) of symbolic
    be homogeneous of a-degree k, and let its series and imaginary
    generators be those its currents define: w(m) = (r-s)[x+(m), x-(0)],
    w'(-m) = -(r-s)[x+(0), x-(-m)] and a(l) by the log-derivative
    recurrence (tests/seriesoracle.py; sl2.build_current_eval reads the
    series off the ladder and a(l) off the telescoped per-weight form, and
    they are these).  Then the twist x+-(k) -> c^k x+-(k),
    with the series derived again from the twisted currents, is
    substitute_module(symbolic, a=c*a), so its reports are
    reports_at_pin(check, symbolic, a=c*a).  The proof needs only the
    identity c^k x+-(k) = x+-(k) at a -> c a for this c (the twist command
    checks it current by current); homogeneity is sufficient for it at
    every nonzero c.  So the twisted currents are the images of the stored
    ones; the definitions build w(m), w'(-m) and a(l) from products, sums
    and scalings of the currents and divisions by m w(0)_ii, which has no
    a; these commute with the substitution, so the series derived from the
    twisted currents are the images of the stored ones.  The gamma1 twist
    is c = -1 with the gamma halves negated too; check_drinfeld reads them
    only in the D1 products gh gh^-1, gph gph^-1 and (gh gh)(gph gph),
    where the two signs cancel, so its reports are those of c = -1.
    """
    pins = [p for p in (a, b) if p is not None]
    if not pins:
        return check(symbolic)
    if not all(pins):
        return check(substitute_module(symbolic, a=a, b=b))
    at_pin = substitution(a=a, b=b)
    # a Laurent entry's denominator is a constant, regular at every pin
    regular = set()
    for g, mat in symbolic.assign.items():
        for row in mat._rows:
            for x in row.values():
                if len(x.den) > 1:
                    den = x.as_quotient()[1]
                    if den not in regular:
                        try:  # raises on a pole, as x.substitute would
                            at_pin(den.inv())
                        except SpecializationPole as exc:
                            raise SpecializationPole(f"generator {g} has a pole: {exc}") from None
                        regular.add(den)

    reports = check(symbolic)
    for rep in reports:
        images = [(inst, lhs.map(at_pin), rhs.map(at_pin)) for inst, lhs, rhs in rep.mismatches]
        rep.mismatches = [m for m in images if m[1] != m[2]]
    return reports


def specialize_module(mod: MatrixModule, m: SpecMap) -> MatrixModule:
    """Entrywise image of every generator matrix, over the specialized table."""
    return substitute_module(mod, **m.subs())


def centrality_report(mod: MatrixModule) -> dict:
    """Do the group-like matrices commute with every generator matrix?

    A group-like g with lattice points in the weight view (rep_core.Weights)
    is diagonal, so [g, h]_ab = (g_a - g_b) h_ab, and g commutes with h
    exactly when g_a == g_b, equal points, at every nonzero h_ab; any other
    g takes its commutators."""
    from .matrix import commutator
    from .rep_core import W_KIND, WP_KIND

    grouplikes = [(g, m) for g, m in mod.assign.items() if g.kind in (W_KIND, WP_KIND)]
    failures = []
    checked = 0
    for g, gm in grouplikes:
        pts = mod.weights.points.get(g)
        for h, hm in mod.assign.items():
            checked += 1
            if pts is not None:
                central = all(pts[a] == pts[b] for a, row in enumerate(hm._rows) for b in row)
            else:
                central = commutator(gm, hm).is_zero()
            if not central:
                failures.append(f"[{g}, {h}] != 0")
    return {"checked": checked, "failures": failures}
