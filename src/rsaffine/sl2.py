"""Finite-dimensional modules for the rank-1 affine algebra: the affine
Chevalley pullback of the ladder module V_n, and the loop-generator
(current) evaluation modules with their series and imaginary generators.

Both normalizations are exposed: shift 1 gives V_n(a), shift rs^-1 gives
the variant W_n(a) = V_n(rs^-1 a) used by the per-weight eigenvalue
formulas.

Two builders read the series off the ladder, by one code path (_series):
build_series_eval stores only the group-likes, the gamma halves and
w(0..order), w'(0..-order), which is all the eigenvalue readers (drinfeld)
read; build_current_eval stores the same generators, in the same order,
with the currents x+-(k) and the imaginary generators a(l) beside them.

Series generators: w(m) = (r-s) C(m) and w'(-m) = -(r-s) C'(m) for m > 0,
with C(m) = [x+(m), x-(0)] and C'(m) = [x+(0), x-(-m)], and w(0), w'(0) the
group-likes.  The Drinfeld realization (Hu-Rosso-Zhang, CMP 278, 2008)
ties them to the imaginary generators by W(z) = sum_m w(m) z^m =
w(0) exp(B(z)), B(z) = sum_l b(l) z^l with b(l) = (r-s) a(l).

Ladder identity.  Every current is the ladder pair times a diagonal power,
x+(m) = e Lambda^m and x-(m) = f M^m (current_matrices), and e has its one
nonzero per row on the superdiagonal, f on the subdiagonal.  So
    C(m)_ii = P_i lam_(i+1)^m - Q_i lam_i^m,
    C'(m)_ii = P_i mu_i^-m - Q_i mu_(i-1)^-m,
and both are diagonal, with P = diag(ef), Q = diag(fe), P_i = [n-i] [i+1]
and P_n = Q_0 = 0.  Since Q_i = f_(i,i-1) e_(i-1,i) = P_(i-1), each
diagonal is a difference of neighbours, C(m)_ii = t_(i+1) - t_i with
t_j = P_(j-1) lam_j^m, and C'(m)_ii = u_i - u_(i-1) with u_j = P_j mu_j^-m:
n running products per m, one monomial product each.  For w(m) and w'(-m)
the factor r-s goes into P once, (r-s) P_i = (r^(n-i) - s^(n-i)) [i+1],
since (r-s)[k] = r^k - s^k has two terms.  tests/seriesoracle.py derives
the same series by general commutators.

Lemma (telescoped per-weight form; Chari and Pressley, CMP 142, 1991).
Extend lam_j = a' s^-n rho^-j (loop_diagonals) to j = n + 1.  Summing the
ladder identity's geometric series puts W(z)_ii / w(0)_ii over
(1 - lam_i z)(1 - lam_(i+1) z), with a numerator of degree 2 whose roots
telescope as the drinfeld docstring shows for the RQ form:
    W(z)_ii / w(0)_ii = (1 - lam_0 z)(1 - lam_(n+1) z)
                        / ((1 - lam_i z)(1 - lam_(i+1) z)),
where one factor cancels at i = 0 and at i = n.  The logarithm of the right
side is B(z)_ii, so b(l)_ii = (lam_i^l + lam_(i+1)^l - lam_0^l - lam_(n+1)^l)
/ l.  Since lam_i / lam_0 = rho^-i, lam_(i+1) / lam_(n+1) = rho^(n-i) and
rho^k - 1 = (r-s)[k] s^-k, each difference divided by r - s is a monomial
times a quantum integer:
    a(l)_ii = (u_i^l [(n-i) l] - v_i^l [i l]) / l,
    u_i = a' r^-(n+1) s^(i+1-n),  v_i = a' r^-i s^-n.
The primed side is the same argument in z^-1 with nu_j = mu_(j-1)^-1 for
lam_j and b(l) = (s-r) a(-l): a(-l)_ii is the same expression with
u'_i = a'^-1 r^(i+1-n) s^-(n+1) and v'_i = a'^-1 r^-n s^-i.  So each entry's
terms are read off their exponents (field.quantum_int_sum), with no product
and no gcd.  tests/seriesoracle.py keeps the log-derivative recurrence on
general commutators as the oracle.
"""

from __future__ import annotations

from .cartan import AffineType, build_pairing
from .errors import NotEigenvector
from .field import A, ONE, R, S, ZERO, RatFunc, quantum_int, quantum_int_sum
from .matrix import Matrix
from .rep_core import (
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
    winv, wpinv = _diagonal_inverse(w), _diagonal_inverse(wp)
    ap = sh * A
    assign = {
        E(1): e,
        F(1): f,
        W(1): w,
        W(1, -1): winv,
        Wp(1): wp,
        Wp(1, -1): wpinv,
        E(0): f.scale(R**-1 * S * ap),
        F(0): e.scale(R * S**-1 * ap.inv()),
        W(0): wp,
        W(0, -1): wpinv,
        Wp(0): w,
        Wp(0, -1): winv,
    }
    return MatrixModule(_A1, _with_gammas(assign, n + 1))


def loop_diagonals(d: int, shift: RatFunc):
    """The entries of Lambda = diag(a' s^-n rho^-i) and
    M = diag(a' r^n rho^-(i+1)), a' = shift*a, on V_n with d = n + 1."""
    ap = shift * A
    lam = [ap * S ** (1 - d) * _RHO**-i for i in range(d)]
    mu = [ap * R ** (d - 1) * _RHO ** -(i + 1) for i in range(d)]
    return lam, mu


def current_matrices(e: Matrix, f: Matrix, lam, mu, ks):
    """The loop-generator matrices of V_n, {k: (x+(k), x-(k))} for k in ks.

    Each is its degree-0 matrix times a diagonal power: x+(k) = e Lambda^k
    and x-(k) = f M^k, with e = x+(0), f = x-(0) the ladder pair and lam,
    mu the entries of Lambda and M (loop_diagonals).  They are running
    products, x+(k) = x+(k-1) Lambda and x+(-k) = x+(1-k) Lambda^-1 outward
    from k = 0 (likewise x-), so each k costs one product per nonzero entry
    and no power."""
    ks = list(ks)
    table = {0: (e, f)}
    for k in range(1, max(ks, default=0) + 1):
        xp, xm = table[k - 1]
        table[k] = (xp.scale_columns(lam), xm.scale_columns(mu))
    lam, mu = [x**-1 for x in lam], [x**-1 for x in mu]
    for k in range(-1, min(ks, default=0) - 1, -1):
        xp, xm = table[k + 1]
        table[k] = (xp.scale_columns(lam), xm.scale_columns(mu))
    return {k: table[k] for k in ks}


def _diagonal_inverse(g: Matrix) -> Matrix:
    """The inverse of a diagonal group-like of V_n, entry by entry: its
    entries are monomials, so no product."""
    return Matrix.diagonal([g[i, i].inv() for i in range(g.n)])


def _group_likes(w: Matrix, wp: Matrix) -> dict:
    """The node-1 group-likes of V_n and their inverses."""
    return {W(1): w, W(1, -1): _diagonal_inverse(w), Wp(1): wp, Wp(1, -1): _diagonal_inverse(wp)}


def _series(n: int, f: Matrix, w: Matrix, wp: Matrix, lam, mu, order: int) -> dict:
    """w(0..order) and w'(0..-order) of V_n, read off the ladder: w(m) =
    (r-s) C(m) and w'(-m) = -(r-s) C'(m) from (r-s) P_i, with
    (r-s) e_(i,i+1) = (r-s) [n-i] = r^(n-i) - s^(n-i) (module docstring)."""
    p = [(R ** (n - i) - S ** (n - i)) * f[i + 1, i] for i in range(n)]
    ws, wps = _ladder_series(p, lam, mu, order)
    out = {Wser(1, 0): w}
    out.update((Wser(1, m), Matrix.diagonal(d)) for m, d in enumerate(ws, 1))
    out[Wpser(1, 0)] = wp
    out.update((Wpser(1, -m), Matrix.diagonal([-x for x in d])) for m, d in enumerate(wps, 1))
    return out


def build_series_eval(n: int, use_shift: bool, order: int) -> MatrixModule:
    """Series module of V_n: the group-likes, the gamma halves, and the
    omega series w(0..order), w'(0..-order), read off the ladder as in
    build_current_eval, with no current and no imaginary generator.  It
    is what the eigenvalue readers (drinfeld) read."""
    if n < 0 or order < 0:
        raise ValueError("need n >= 0 and order >= 0")
    _, f, w, wp = _vn_matrices(n)
    lam, mu = loop_diagonals(n + 1, shift_factor(use_shift))
    assign = _with_gammas(_group_likes(w, wp), n + 1)
    assign.update(_series(n, f, w, wp, lam, mu, order))
    return MatrixModule(_A1, assign)


def build_current_eval(n: int, use_shift=False, kmax: int = 4, lmax: int = 4) -> MatrixModule:
    """Current module with x+-(k) for |k| <= 2*kmax, the omega series to
    order 2*kmax, and the imaginary generators to +-lmax, 0 <= lmax <=
    2*kmax.  It stores what build_series_eval(n, use_shift, 2*kmax) does,
    in the same order, with the currents after the group-likes and a(l)
    last.  The series are read off the ladder, and each a(+-l) entry off
    the telescoped per-weight form in closed form, with no product (module
    docstring), so neither reads a stored current, a(l) costs the same at
    every l, and the build needs no bound on lmax: lmax <= 2*kmax is a
    contract, shared with the CLI.
    check_drinfeld reads the currents at |k| <= kmax + 1 and the series to
    order 2*kmax; the currents past kmax + 1 are read by the twist
    command's entrywise match with the reparameterized module and by the
    commutators of tests/seriesoracle.py.  The invariants are checked once,
    on the finished module."""
    if n < 0 or kmax < 1:
        raise ValueError("need n >= 0 and kmax >= 1")
    if not 0 <= lmax <= 2 * kmax:
        raise ValueError(f"need 0 <= lmax <= 2*kmax, got lmax {lmax} with kmax {kmax}")
    e, f, w, wp = _vn_matrices(n)
    lam, mu = loop_diagonals(n + 1, shift_factor(use_shift))
    assign = _group_likes(w, wp)
    order = 2 * kmax  # D7 reads the series to order 2*kmax; the currents share the window
    for k, (xp, xm) in current_matrices(e, f, lam, mu, range(-order, order + 1)).items():
        assign[Xp(1, k)] = xp
        assign[Xm(1, k)] = xm
    _with_gammas(assign, n + 1)
    assign.update(_series(n, f, w, wp, lam, mu, order))
    for l in range(1, lmax + 1):
        assign[Aim(1, l)], assign[Aim(1, -l)] = _imaginary(n, lam[0], l)
    return MatrixModule(_A1, assign)


def _ladder_series(p, lam, mu, order: int):
    """The diagonals of C(m) and C'(m) for m = 1..order from the ladder
    products P_i = p[i], i < n (module docstring): C(m)_ii = t_(i+1) - t_i
    with t_j = P_(j-1) lam_j^m, and C'(m)_ii = u_i - u_(i-1) with
    u_j = P_j mu_j^-m, where t_0, t_(n+1), u_(-1) and u_n are 0.  Each t_j
    and u_j is a running product, one monomial product per m."""
    t, u = [ZERO, *p], [*p, ZERO]
    muinv = [x**-1 for x in mu]
    cs, cps = [], []
    for _ in range(order):
        t = [x * y for x, y in zip(t, lam)]
        u = [x * y for x, y in zip(u, muinv)]
        cs.append([b - a for a, b in zip(t, [*t[1:], ZERO])])
        cps.append([a - b for a, b in zip(u, [ZERO, *u])])
    return cs, cps


def _imaginary(n: int, lam0: RatFunc, l: int):
    """a(l) and a(-l) on V_n as diagonal matrices: a(+-l)_ii =
    (u_i^l [(n-i) l] - v_i^l [i l]) / l (module docstring), with each u_i,
    v_i written as lam_0^+-1 = (a' s^-n)^+-1 times powers of r and s."""
    r, s, x, y = R**l, S**l, lam0**l, lam0**-l
    pos = [((x, r ** -(n + 1), s ** (i + 1)), (x, r**-i)) for i in range(n + 1)]
    neg = [((y, r ** (i + 1 - n), s ** -(2 * n + 1)), (y, r**-n, s ** -(n + i))) for i in range(n + 1)]
    return tuple(
        Matrix.diagonal([quantum_int_sum([(1, u, (n - i) * l), (-1, v, i * l)], l) for i, (u, v) in enumerate(side)])
        for side in (pos, neg)
    )


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
