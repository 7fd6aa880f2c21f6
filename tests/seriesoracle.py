"""The series and imaginary generators derived from a module's currents by
general commutators and the log-derivative recurrence: the oracle for
sl2.build_current_eval, which reads the series off the ladder and a(l) off
the telescoped per-weight form.

w(m) = (r-s) C(m) and w'(-m) = -(r-s) C'(m) for m > 0, with
C(m) = [x+(m), x-(0)] and C'(m) = [x+(0), x-(-m)], and w(0), w'(0) the
group-likes.  a(l) comes from C(m), m <= l, by the log-derivative
recurrence (Knuth, TAOCP vol. 2, 4.7): W(z) = w(0) exp(B(z)) with
b(l) = (r-s) a(l) gives W'(z) = W(z) B'(z), since these matrices are all
diagonal and so commute.  At z^(m-1) this is m w(m) = sum_{l=1..m} l b(l)
w(m-l); divided by r-s,
    m a(m) w(0) = m C(m) - sum_{l<m} l b(l) C(m-l).
The primed side is the same with C', w'(0) and b(l) = (s-r) a(-l).  It
reads no closed form, so it checks the build's.  Nothing here assumes the
currents are ladder matrices times diagonal powers, so the derivation also
serves modules whose currents were changed after the build, such as the
loop twists.
"""

from truncseries import BadConstantTerm

from rsaffine.errors import NotEigenvector, WindowTooSmall
from rsaffine.field import ZERO, R, S
from rsaffine.matrix import Matrix, commutator
from rsaffine.rep_core import (
    AIM_KIND,
    WPSER_KIND,
    WSER_KIND,
    Aim,
    MatrixModule,
    W,
    Wp,
    Wpser,
    Wser,
    Xm,
    Xp,
)


def imaginary(w0: Matrix, cs, rs, lmax: int):
    """a(1..lmax), or a(-1..-lmax) from w'(0), C' and rs = s-r, as diagonal
    matrices, by the log-derivative recurrence (module docstring) on each
    diagonal entry, with C(m)_ii = cs[m-1][i] for m <= lmax and
    b(l) = rs a(l)."""
    mrs = [m * rs for m in range(lmax + 1)]
    cols = []
    for i in range(w0.n):
        c0 = w0[i, i]
        if c0.is_zero():
            raise BadConstantTerm("group-like eigenvalue vanished")
        c = [ZERO] + [cm[i] for cm in cs]
        a, lb = [], [ZERO]  # lb[l] = l b(l)
        for m in range(1, lmax + 1):
            acc = m * c[m] - sum((lb[l] * c[m - l] for l in range(1, m)), ZERO)
            a.append(acc / (m * c0))
            lb.append(mrs[m] * a[-1])
        cols.append(a)
    return [Matrix.diagonal(col) for col in zip(*cols)]


def with_series(mod: MatrixModule, order: int, lmax: int) -> MatrixModule:
    """mod with w(0..order), w'(0..-order) derived from its currents and
    a(+-1..+-lmax) read off the log-derivative recurrence; stored series
    generators are replaced.  Raises NotEigenvector unless every derived one
    is diagonal."""
    if not 0 <= lmax <= order:
        raise ValueError(f"need 0 <= lmax <= order, got lmax {lmax} with order {order}")
    if mod.kmax < order:
        raise WindowTooSmall(f"currents to |k| <= {mod.kmax}, need {order}")
    rs = R - S
    xp0, xm0 = mod.get(Xp(1, 0)), mod.get(Xm(1, 0))
    ws, wps, cs, cps = [mod.get(W(1))], [mod.get(Wp(1))], [], []
    for m in range(1, order + 1):
        c, cp = commutator(mod.get(Xp(1, m)), xm0), commutator(xp0, mod.get(Xm(1, -m)))
        if m <= lmax:
            cs.append(c)
            cps.append(cp)
        ws.append(c.scale(rs))
        wps.append(cp.scale(-rs))
    for m, (w, wp) in enumerate(zip(ws, wps)):
        if not (w.is_diagonal() and wp.is_diagonal()):
            raise NotEigenvector(f"series generator at m={m} is not diagonal")
    assign = {g: m for g, m in mod.assign.items() if g.kind not in (WSER_KIND, WPSER_KIND, AIM_KIND)}
    assign.update((Wser(1, m), mat) for m, mat in enumerate(ws))
    assign.update((Wpser(1, -m), mat) for m, mat in enumerate(wps))

    def diagonals(mats):
        return [[mat[i, i] for i in range(mod.dim)] for mat in mats]

    apos = imaginary(ws[0], diagonals(cs), rs, lmax)
    aneg = imaginary(wps[0], diagonals(cps), -rs, lmax)
    for l in range(1, lmax + 1):
        assign[Aim(1, l)] = apos[l - 1]
        assign[Aim(1, -l)] = aneg[l - 1]
    return MatrixModule(mod.table, assign, check=False)
