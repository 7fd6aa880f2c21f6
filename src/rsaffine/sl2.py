"""Finite-dimensional modules for the rank-1 affine algebra: the affine
Chevalley pullback of the ladder module V_n, and the loop-generator
(current) evaluation modules with their series and imaginary generators.

Both normalizations are exposed: shift 1 gives V_n(a), shift rs^-1 gives
the variant W_n(a) = V_n(rs^-1 a) used by the per-weight eigenvalue
formulas.

Series and imaginary generators come from the currents in one pass
(with_series): w(m) = (r-s) C(m) and w'(-m) = -(r-s) C'(m) for m > 0, with
C(m) = [x+(m), x-(0)] and C'(m) = [x+(0), x-(-m)], and w(0), w'(0) the
group-likes.  The Drinfeld realization (Hu-Rosso-Zhang, CMP 278, 2008)
ties them to the imaginary generators by W(z) = sum_m w(m) z^m =
w(0) exp(B(z)), B(z) = sum_l b(l) z^l with b(l) = (r-s) a(l).

Hoisting r-s: the commutator is bilinear, so
    (r-s) [x+(m), x-(0)] = [x+(m), (r-s) x-(0)],
    -(r-s) [x+(0), x-(-m)] = [-(r-s) x+(0), x-(-m)].
x-(0) and x+(0) are scaled once, and w(m), w'(-m) for m > lmax are plain
commutators against them, with no scaling per m.  The entries of x+-(0)
are quantum integers [k], of k terms, and (r-s)[k] = r^k - s^k has two,
so these products are smaller too.  C(m), C'(m) for m <= lmax, which the
recurrence below reads, are taken and then scaled.

Lemma (log-derivative recurrence; Knuth, TAOCP vol. 2, 4.7): differentiating,
W'(z) = W(z) B'(z), since these matrices are all diagonal and so commute.
At z^(m-1) this is m w(m) = sum_{l=1..m} l b(l) w(m-l); divided by r-s,
    m a(m) w(0) = m C(m) - sum_{l<m} l b(l) C(m-l).
The primed side is the same with C', w'(0) and b(l) = (s-r) a(-l).  Each
step multiplies by the short exponential sums b(l) and divides only by
m w(0)_ii, a monomial on the evaluation modules, so a build takes no gcd.
"""

from __future__ import annotations

from .cartan import AffineType, build_pairing
from .errors import BadConstantTerm, NotEigenvector, WindowTooSmall
from .field import A, ONE, R, S, ZERO, RatFunc, quantum_int
from .matrix import Matrix, commutator
from .rep_core import (
    AIM_KIND,
    WPSER_KIND,
    WSER_KIND,
    Aim,
    E,
    F,
    GammaHalf,
    GammaPrimeHalf,
    MatrixModule,
    W,
    Wp,
    Wpser,
    Wser,
    Xm,
    Xp,
)

_A1 = build_pairing(AffineType("A", 1))
_RHO = R * S**-1


def shift_factor(use_shift: bool) -> RatFunc:
    """The evaluation-parameter factor: rs^-1 when use_shift, else 1."""
    if not isinstance(use_shift, bool):
        raise ValueError(f"use_shift must be False or True, got {use_shift!r}")
    return _RHO if use_shift else ONE


def _vn_matrices(n: int):
    d = n + 1
    # e.v_j = [n+1-j] v_(j-1) and f.v_j = [j+1] v_(j+1)
    e = Matrix._sparse([{i + 1: quantum_int(n - i)} for i in range(n)] + [{}], d)
    f = Matrix._sparse([{}] + [{i - 1: quantum_int(i)} for i in range(1, d)], d)
    w = Matrix.diagonal([R**n * _RHO**-i for i in range(d)])
    wp = Matrix.diagonal([S**n * _RHO**i for i in range(d)])
    return e, f, w, wp


def _with_gammas(assign, dim):
    ident = Matrix.identity(dim)
    for g in (GammaHalf(1), GammaHalf(-1), GammaPrimeHalf(1), GammaPrimeHalf(-1)):
        assign[g] = ident
    return assign


def build_chevalley_eval(n: int, use_shift=False) -> MatrixModule:
    """Affine Chevalley module on V_n: node-0 generators act through the
    evaluation morphism e_0 -> r^-1 s a' f, f_0 -> r s^-1 a'^-1 e, with the
    omega pair swapped between the two nodes."""
    sh = shift_factor(use_shift)
    e, f, w, wp = _vn_matrices(n)
    ap = sh * A
    assign = {
        E(1): e,
        F(1): f,
        W(1): w,
        W(1, -1): w.inverse(),
        Wp(1): wp,
        Wp(1, -1): wp.inverse(),
        E(0): f.scale(R**-1 * S * ap),
        F(0): e.scale(R * S**-1 * ap.inv()),
        W(0): wp,
        W(0, -1): wp.inverse(),
        Wp(0): w,
        Wp(0, -1): w.inverse(),
    }
    return MatrixModule(_A1, _with_gammas(assign, n + 1))


def current_matrices(e: Matrix, f: Matrix, shift: RatFunc, ks):
    """The loop-generator matrices of V_n, {k: (x+(k), x-(k))} for k in ks.

    Each is its degree-0 matrix times a diagonal power: x+(k) = e Lambda^k
    and x-(k) = f M^k, with e = x+(0), f = x-(0) the ladder pair,
    Lambda = diag(a' s^-n rho^-i), M = diag(a' r^n rho^-(i+1)) and
    a' = shift*a.  They are running products, x+(k) = x+(k-1) Lambda and
    x+(-k) = x+(1-k) Lambda^-1 outward from k = 0 (likewise x-), so each k
    costs one product per nonzero entry and no power."""
    ks = list(ks)
    d = e.n
    ap = shift * A
    lam = [ap * S ** (1 - d) * _RHO**-i for i in range(d)]
    mu = [ap * R ** (d - 1) * _RHO ** -(i + 1) for i in range(d)]
    table = {0: (e, f)}
    for k in range(1, max(ks, default=0) + 1):
        xp, xm = table[k - 1]
        table[k] = (xp.scale_columns(lam), xm.scale_columns(mu))
    lam, mu = [x**-1 for x in lam], [x**-1 for x in mu]
    for k in range(-1, min(ks, default=0) - 1, -1):
        xp, xm = table[k + 1]
        table[k] = (xp.scale_columns(lam), xm.scale_columns(mu))
    return {k: table[k] for k in ks}


def build_current_eval(n: int, use_shift=False, kmax: int = 4, lmax: int = 4) -> MatrixModule:
    """Current module with x+-(k) for |k| <= 2*kmax, the omega series to
    order 2*kmax, and the imaginary generators to +-lmax, 0 <= lmax <=
    2*kmax since a(l) is read off the series to order l.  The invariants
    are checked once, on the currents; with_series keeps the group-likes."""
    if n < 0 or kmax < 1:
        raise ValueError("need n >= 0 and kmax >= 1")
    if not 0 <= lmax <= 2 * kmax:
        raise ValueError(f"need 0 <= lmax <= 2*kmax, got lmax {lmax} with kmax {kmax}")
    sh = shift_factor(use_shift)
    e, f, w, wp = _vn_matrices(n)
    assign = {
        W(1): w,
        W(1, -1): w.inverse(),
        Wp(1): wp,
        Wp(1, -1): wp.inverse(),
    }
    reach = 2 * kmax  # series to order 2*kmax need currents there
    for k, (xp, xm) in current_matrices(e, f, sh, range(-reach, reach + 1)).items():
        assign[Xp(1, k)] = xp
        assign[Xm(1, k)] = xm
    return with_series(MatrixModule(_A1, _with_gammas(assign, n + 1)), 2 * kmax, lmax)


def with_series(mod: MatrixModule, order: int, lmax: int) -> MatrixModule:
    """mod with w(0..order), w'(0..-order) derived from its currents and
    a(+-1..+-lmax) read off the log-derivative recurrence (module
    docstring); stored series generators are replaced.  Raises
    NotEigenvector unless every derived one is diagonal."""
    if not 0 <= lmax <= order:
        raise ValueError(f"need 0 <= lmax <= order, got lmax {lmax} with order {order}")
    if mod.kmax < order:
        raise WindowTooSmall(f"currents to |k| <= {mod.kmax}, need {order}")
    rs = R - S
    xp0, xm0 = mod.get(Xp(1, 0)), mod.get(Xm(1, 0))
    xm0_rs, xp0_rs = xm0.scale(rs), xp0.scale(-rs)  # (r-s) x-(0), -(r-s) x+(0): module docstring
    ws, wps, cs, cps = [mod.get(W(1))], [mod.get(Wp(1))], [], []
    for m in range(1, order + 1):
        xpm, xmm = mod.get(Xp(1, m)), mod.get(Xm(1, -m))
        if m <= lmax:  # a(l) reads only C(1..lmax); keeping no more lowers the peak memory
            c, cp = commutator(xpm, xm0), commutator(xp0, xmm)
            cs.append(c)
            cps.append(cp)
            ws.append(c.scale(rs))
            wps.append(cp.scale(-rs))
        else:
            ws.append(commutator(xpm, xm0_rs))
            wps.append(commutator(xp0_rs, xmm))
    _require_diagonal(ws, wps)
    assign = {g: m for g, m in mod.assign.items() if g.kind not in (WSER_KIND, WPSER_KIND, AIM_KIND)}
    assign.update((Wser(1, m), mat) for m, mat in enumerate(ws))
    assign.update((Wpser(1, -m), mat) for m, mat in enumerate(wps))
    apos = _imaginary(ws[0], cs, rs, lmax)
    aneg = _imaginary(wps[0], cps, -rs, lmax)
    for l in range(1, lmax + 1):
        assign[Aim(1, l)] = apos[l - 1]
        assign[Aim(1, -l)] = aneg[l - 1]
    return MatrixModule(mod.table, assign, check=False)


def _imaginary(w0: Matrix, cs, rs: RatFunc, lmax: int):
    """a(1..lmax), or a(-1..-lmax) from w'(0), C' and rs = s-r, as diagonal
    matrices, by the log-derivative recurrence (module docstring) on each
    diagonal entry, with C(m) = cs[m-1] for m <= lmax and b(l) = rs a(l)."""
    mrs = [m * rs for m in range(lmax + 1)]
    cols = []
    for i in range(w0.n):
        c0 = w0[i, i]
        if c0.is_zero():
            raise BadConstantTerm("group-like eigenvalue vanished")
        c = [ZERO] + [cm[i, i] for cm in cs]
        a, lb = [], [ZERO]  # lb[l] = l b(l)
        for m in range(1, lmax + 1):
            acc = m * c[m] - sum((lb[l] * c[m - l] for l in range(1, m)), ZERO)
            a.append(acc / (m * c0))
            lb.append(mrs[m] * a[-1])
        cols.append(a)
    return [Matrix.diagonal(col) for col in zip(*cols)]


def _require_diagonal(ws, wps):
    """NotEigenvector at the first m where w(m) or w'(-m) is not diagonal."""
    for m, (w, wp) in enumerate(zip(ws, wps)):
        if not (w.is_diagonal() and wp.is_diagonal()):
            raise NotEigenvector(f"series generator at m={m} is not diagonal")


def series_matrices(mod: MatrixModule, order: int):
    """The stored w(0..order) and w'(0..-order).  Raises MissingGenerator
    when one is not stored, and NotEigenvector unless every one is diagonal
    on the basis, since the eigenvalue readers read only the diagonal."""
    ws = [mod.get(Wser(1, m)) for m in range(order + 1)]
    wps = [mod.get(Wpser(1, -m)) for m in range(order + 1)]
    _require_diagonal(ws, wps)
    return ws, wps
