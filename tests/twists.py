"""The loop twists built directly, as the oracle for the twist command.

The command decides a loop twist on the symbolic module through the
substitution a -> c a (specialize.reports_at_pin).  These build the twisted
module itself: the currents scaled, the series and imaginary generators
derived again from them, so that its check can be compared with the mapped
one.
"""

from seriesoracle import with_series

from rsaffine.errors import MissingGenerator
from rsaffine.field import RatFunc
from rsaffine.rep_core import (
    AIM_KIND,
    WSER_KIND,
    XM_KIND,
    XP_KIND,
    GammaHalf,
    GammaPrimeHalf,
    MatrixModule,
)


def _retwist_series(mod: MatrixModule, assign) -> MatrixModule:
    """The twisted module, its series and imaginary generators re-derived
    from the new currents to the orders mod carries."""
    twisted = MatrixModule(mod.table, assign, check=False)
    sers = [g.k for g in mod.assign if g.kind == WSER_KIND]
    ells = [g.k for g in mod.assign if g.kind == AIM_KIND]
    return with_series(twisted, max(sers), max(ells, default=0)) if sers else twisted


def twist_gamma1(mod: MatrixModule) -> MatrixModule:
    """Loop-sign twist: x+-(k) -> (-1)^k x+-(k), gamma halves negated; the
    gamma2 twist at c = -1, whose series re-derivation reads no gamma half."""
    assign = dict(twist_gamma2(mod, -1).assign)
    for g in (GammaHalf(1), GammaHalf(-1), GammaPrimeHalf(1), GammaPrimeHalf(-1)):
        if g in assign:
            assign[g] = -assign[g]
    return MatrixModule(mod.table, assign, check=False)


def twist_gamma2(mod: MatrixModule, c) -> MatrixModule:
    """Loop-scaling twist: x+-(k) -> c^k x+-(k) for an invertible scalar c."""
    c = RatFunc._coerce(c)
    if c.is_zero():
        raise ValueError("twist scalar must be invertible")
    if not any(g.kind == XP_KIND for g in mod.assign):
        raise MissingGenerator("loop twists act on current generators")
    assign = {}
    for g, mat in mod.assign.items():
        if g.kind in (XP_KIND, XM_KIND):
            assign[g] = mat.scale(c**g.k)
        else:
            assign[g] = mat
    return _retwist_series(mod, assign)
