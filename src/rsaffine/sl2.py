"""Finite-dimensional modules for the rank-1 affine algebra: the affine
Chevalley pullback of the ladder module V_n, and the loop-generator
(current) evaluation modules with their series and imaginary generators.

Both normalizations are exposed: shift 1 gives V_n(a), shift rs^-1 gives
the variant W_n(a) = V_n(rs^-1 a) used by the per-weight eigenvalue
formulas.
"""

from __future__ import annotations

from .cartan import AffineType, build_pairing
from .errors import BadConstantTerm, NotEigenvector, WindowTooSmall
from .field import A, ONE, R, S, RatFunc, quantum_int
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
from .series import TruncSeries

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
    e = Matrix([[quantum_int(n - i) if j == i + 1 else 0 for j in range(d)] for i in range(d)])
    f = Matrix([[quantum_int(j + 1) if i == j + 1 else 0 for j in range(d)] for i in range(d)])
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
    a' = shift*a; one product per nonzero entry."""
    d = e.n
    ap = shift * A
    lam = [ap * S ** (1 - d) * _RHO**-i for i in range(d)]
    mu = [ap * R ** (d - 1) * _RHO ** -(i + 1) for i in range(d)]
    return {k: (e.scale_columns([x**k for x in lam]), f.scale_columns([x**k for x in mu])) for k in ks}


def build_current_eval(n: int, use_shift=False, kmax: int = 4, lmax: int = 4) -> MatrixModule:
    """Current module with x+-(k) for |k| <= max(kmax+1, 2*kmax), the omega
    series to order 2*kmax, and the recovered imaginary generators to +-lmax,
    lmax <= 2*kmax since a(l) is recovered from the series to order l."""
    if n < 0 or kmax < 1:
        raise ValueError("need n >= 0 and kmax >= 1")
    if lmax > 2 * kmax:
        raise ValueError(f"need lmax <= 2*kmax, got lmax {lmax} with kmax {kmax}")
    sh = shift_factor(use_shift)
    e, f, w, wp = _vn_matrices(n)
    assign = {
        W(1): w,
        W(1, -1): w.inverse(),
        Wp(1): wp,
        Wp(1, -1): wp.inverse(),
    }
    reach = max(kmax + 1, 2 * kmax)  # series to order 2*kmax need currents there
    for k, (xp, xm) in current_matrices(e, f, sh, range(-reach, reach + 1)).items():
        assign[Xp(1, k)] = xp
        assign[Xm(1, k)] = xm
    currents = MatrixModule(_A1, _with_gammas(assign, n + 1), check=False)
    return MatrixModule(_A1, with_series(currents, 2 * kmax, lmax).assign)


def with_series(mod: MatrixModule, order: int, lmax: int) -> MatrixModule:
    """mod with w(0..order), w'(0..-order) derived from its currents and
    a(+-1..+-lmax) recovered from them; stored series generators are replaced.
    Raises NotEigenvector unless every derived one is diagonal."""
    assign = {g: m for g, m in mod.assign.items() if g.kind not in (WSER_KIND, WPSER_KIND, AIM_KIND)}
    ws, wps = omega_matrices(mod, order)
    for m, mat in enumerate(ws):
        assign[Wser(1, m)] = mat
    for m, mat in enumerate(wps):
        assign[Wpser(1, -m)] = mat
    series = MatrixModule(mod.table, assign, check=False, rs=mod.rs)
    series_matrices(series, order)  # refuses a non-diagonal one at any m <= order
    apos, aneg = recover_imaginary(series, lmax)
    for l in range(1, lmax + 1):
        assign[Aim(1, l)] = apos[l - 1]
        assign[Aim(1, -l)] = aneg[l - 1]
    return MatrixModule(mod.table, assign, check=False, rs=mod.rs)


def series_matrices(mod: MatrixModule, order: int):
    """The stored w(0..order) and w'(0..-order).  Raises MissingGenerator
    when one is not stored, and NotEigenvector unless every one is diagonal
    on the basis, since the eigenvalue readers read only the diagonal."""
    ws = [mod.get(Wser(1, m)) for m in range(order + 1)]
    wps = [mod.get(Wpser(1, -m)) for m in range(order + 1)]
    for m, (w, wp) in enumerate(zip(ws, wps)):
        if not (w.is_diagonal() and wp.is_diagonal()):
            raise NotEigenvector(f"series generator at m={m} is not diagonal")
    return ws, wps


def omega_matrices(mod: MatrixModule, mmax: int):
    """Series generators from the commutator instances:
    w(m) = (r-s)[x+(m), x-(0)] and w'(-m) = -(r-s)[x+(0), x-(-m)] for m > 0,
    w(0), w'(0) from the group-likes.  with_series checks that they are
    diagonal.
    """
    if mod.kmax < mmax:
        raise WindowTooSmall(f"currents to |k| <= {mod.kmax}, need {mmax}")
    rs = R - S
    xm0 = mod.get(Xm(1, 0))
    xp0 = mod.get(Xp(1, 0))
    ws = [mod.get(W(1))]
    wps = [mod.get(Wp(1))]
    for m in range(1, mmax + 1):
        ws.append(commutator(mod.get(Xp(1, m)), xm0).scale(rs))
        wps.append(commutator(xp0, mod.get(Xm(1, -m))).scale(-rs))
    return ws, wps


def recover_imaginary(mod: MatrixModule, lmax: int):
    """Imaginary generators from the series logarithm:
    sum_m w(m) z^-m = w(0) exp((r-s) sum_l a(l) z^-l) and the primed series
    with the -(r-s) sign.  Returns (a(1..lmax), a(-1..-lmax)), all diagonal.
    """
    ws, wps = series_matrices(mod, lmax)
    rs_inv = (R - S).inv()

    apos_diag = [[] for _ in range(lmax)]
    aneg_diag = [[] for _ in range(lmax)]
    for i in range(mod.dim):
        c0 = ws[0][i, i]
        c0p = wps[0][i, i]
        if c0.is_zero() or c0p.is_zero():
            raise BadConstantTerm("group-like eigenvalue vanished")
        f = TruncSeries(lmax, [w[i, i] / c0 for w in ws])
        g = TruncSeries(lmax, [w[i, i] / c0p for w in wps])
        lf = f.log()
        lg = g.log()
        for l in range(1, lmax + 1):
            apos_diag[l - 1].append(lf[l] * rs_inv)
            aneg_diag[l - 1].append(-(lg[l] * rs_inv))
    apos = [Matrix.diagonal(cs) for cs in apos_diag]
    aneg = [Matrix.diagonal(cs) for cs in aneg_diag]
    return apos, aneg
